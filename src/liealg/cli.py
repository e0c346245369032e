"""Command-line front end.

Subcommands: ``gen`` (write a family member to a file), ``check``
(jacobi / invariance / grading verification with witnesses), ``ideals``
(coordinate-ideal enumeration, optionally cross-checked against the
closed form), ``analyze`` (series, center, Killing form, self-duality),
``classify`` (decomposability plus the double-extension verdict for
family members), ``dext`` and ``wigner`` (metric constructions).

Exit codes: 0 the property holds or the command succeeded, 1 a checked
property fails (a witness is reported), 2 usage error, 3 malformed
input file, or a file or stream that cannot be read or written.
Reports are deterministic; the human summary goes to stdout, the
machine JSON to --json PATH or to stdout with --porcelain.

The environment variable LIEALG_BRUTE_CAP overrides the default cap
(65536) on 2^dim, the number of coordinate subsets (and so of possible
ideals) of an algebra whose coordinate ideals are enumerated; the
enumeration itself visits only the closed sets of the bracket support,
not every subset.  The cap bounds ``ideals`` and ``classify FILE``
(exit 2 over the cap) and the decomposability verdict of ``dext``
("unknown" over the cap).  Each of these three reads the cap before it
reads or writes any file, so a malformed value exits 2 and leaves no
output behind; ``classify --family an --n N`` never reads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import BilinearForm
from .family import (
    DEFAULT_BRUTE_CAP,
    canonical_metric,
    classify_ideals,
    enumerate_coordinate_ideals,
    truncated_algebra,
)
from .fields import PrimeField, QQ
from .hats import IDENTITY_HAT, MOD3_BALANCED, ZModHat
from .io import (
    AlgebraFileError,
    _parse_metric,
    load_algebra,
    parse_grid,
    read_json,
    save_algebra,
    scalar_to_string,
    string_to_scalar,
)
from .linalg import Matrix, Subspace
from .selfdual import (
    ConstructionError,
    ContractionInput,
    DoubleExtensionInput,
    decomposability_check,
    deeper_verdict,
    double_extend,
    is_self_dual,
    wigner_contract,
)

__all__ = ["main"]


class _Usage(Exception):
    """Flag combination problem discovered after argparse (exit 2)."""


class _Failure(Exception):
    """A checked property fails (exit 1); carries report details."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


def _brute_cap() -> int:
    raw = os.environ.get("LIEALG_BRUTE_CAP")
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise _Usage(f"LIEALG_BRUTE_CAP must be an integer, got {raw!r}")
    if cap <= 0:
        raise _Usage("LIEALG_BRUTE_CAP must be positive")
    return cap


def _parse_hat(name: str):
    if name == "mod3":
        return MOD3_BALANCED
    if name == "identity":
        return IDENTITY_HAT
    if name.startswith("zmod:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError:
            raise _Usage(f"bad modulus in --hat {name!r}")
        if p < 2:
            raise _Usage("zmod modulus must be at least 2")
        return ZModHat(p)
    raise _Usage(f"unknown hat {name!r} (expected mod3, identity, or zmod:P)")


def _hat_field(hat, field_flag: str):
    if field_flag == "Q":
        return QQ
    if isinstance(hat, ZModHat):
        try:
            return hat.default_field()
        except ValueError as exc:
            raise _Usage(str(exc))
    if hat is MOD3_BALANCED:
        return PrimeField(3)
    raise _Usage("--field Fp needs a hat with a finite modulus")


def _grid_json(rows) -> list:
    """Rows of scalars as rows of canonical strings."""
    return [[scalar_to_string(x) for x in r] for r in rows]


def _coordinate_ideals(alg, cap: int) -> list:
    """The coordinate ideals of ``alg``; over the cap a usage error."""
    try:
        return enumerate_coordinate_ideals(alg, cap)
    except ValueError as exc:
        raise _Usage(str(exc))


def _construct(build, inp, output: str):
    """The algebra and metric ``build(inp)`` returns, saved to ``output``;
    a construction that fails exits 1 and writes nothing."""
    try:
        out, metric = build(inp)
    except (ValueError, ConstructionError) as exc:
        raise _Failure(str(exc))
    save_algebra(output, out, metric)
    return out, metric


# ---------------------------------------------------------------------------
# subcommands: each returns (exit_code, report_payload, human_lines)
# ---------------------------------------------------------------------------

def _cmd_gen(args):
    hat = _parse_hat(args.hat)
    field = _hat_field(hat, args.field)
    if args.n < 0:
        raise _Usage("--n must be non-negative")
    alg = truncated_algebra(args.n, hat, field)
    metric = None
    if args.metric is not None:
        if not args.metric.startswith("b="):
            raise _Usage("--metric takes the form b=RATIONAL")
        try:
            b = string_to_scalar(field, args.metric[2:])
        except AlgebraFileError as exc:
            raise _Usage(f"bad --metric value: {exc}")
        metric = canonical_metric(args.n, b, field)
        triple = metric.invariance_witness(alg)
        if triple or not metric.is_nondegenerate():
            reason = f"invariance fails at triple {triple}" if triple else "it is degenerate"
            if triple and hat is MOD3_BALANCED:
                reason += "; one on the diagonal i + j = n exists iff n mod 3 = 0"
            raise _Failure(f"the diagonal form is not an invariant metric: {reason} "
                           f"(n = {args.n}, b = {args.metric[2:]})", n=args.n, hat=hat.name)
    save_algebra(args.output, alg, metric)
    report = {
        "n": args.n,
        "dim": alg.dim,
        "hat": hat.name,
        "field": "Q" if field.characteristic == 0 else f"F{field.characteristic}",
        "stored_brackets": len(alg.sc),
        "metric_included": metric is not None,
        "output": args.output,
    }
    human = [f"wrote {args.output}: family member n={args.n} "
             f"(dim {alg.dim}) over {report['field']}, "
             f"{len(alg.sc)} stored brackets"
             + (", metric included" if metric is not None else "")]
    return 0, report, human


def _cmd_check(args):
    alg, metric = load_algebra(args.file)
    prop = args.property
    if prop == "jacobi":
        witness = alg.check_jacobi()
        report = {"property": "jacobi", "holds": witness is None}
        if witness is None:
            return 0, report, ["jacobi: holds on all basis triples"]
        defect = _grid_json([witness.defect])[0]
        report["witness"] = {"i": witness.i, "j": witness.j, "k": witness.k,
                             "defect": defect}
        return 1, report, [
            f"jacobi: fails at triple ({witness.i}, {witness.j}, {witness.k})",
            "defect: (" + ", ".join(defect) + ")",
        ]
    if prop == "invariance":
        if metric is None:
            raise _Usage("file carries no metric to check")
        triple = metric.invariance_witness(alg)
        report = {"property": "invariance", "holds": triple is None}
        if triple is None:
            return 0, report, ["invariance: metric is ad-invariant"]
        report["witness"] = {"k": triple[0], "i": triple[1], "j": triple[2]}
        return 1, report, [f"invariance: fails at triple {triple}"]
    # argparse's choices leave "grading"
    if alg.grading is None:
        raise _Usage("file carries no grading to check")
    triple = alg.grading_witness(alg.grading)
    report = {"property": "grading", "holds": triple is None,
              "degrees": list(alg.grading)}
    if triple is None:
        return 0, report, ["grading: bracket degrees are additive"]
    report["witness"] = {"i": triple[0], "j": triple[1], "k": triple[2]}
    return 1, report, [f"grading: fails at (i, j, k) = {triple}"]


def _cmd_ideals(args):
    cap = _brute_cap()
    alg, _ = load_algebra(args.file)
    ideals = _coordinate_ideals(alg, cap)
    listing = [list(s.pivot_columns()) for s in ideals]
    report = {"count": len(ideals), "ideals": listing}
    human = [f"{len(ideals)} coordinate ideals"]
    human += ["  {" + ", ".join(str(i) for i in s) + "}" for s in listing]
    code = 0
    if args.classify_an:
        try:
            classification = classify_ideals(alg.dim - 1, MOD3_BALANCED, cross_check=False)
        except ValueError as exc:
            raise _Usage(f"--classify-an needs a family member of dimension n + 1 "
                         f"(the file has dimension {alg.dim}): {exc}")
        closed = classification.subspaces(alg.field)
        match = set(closed) == set(ideals) and len(closed) == len(ideals)
        report["closed_form"] = {
            "suffix_starts": list(classification.suffix_ideals),
            "skip_starts": list(classification.skip_ideals),
            "match": match,
        }
        human.append(
            f"closed form: suffix starts {list(classification.suffix_ideals)}, "
            f"skip starts {list(classification.skip_ideals)}, "
            f"match={'yes' if match else 'NO'}")
        if not match:
            code = 1
    return code, report, human


def _cmd_analyze(args):
    alg, metric = load_algebra(args.file)
    derived = [s.dim for s in alg.derived_series()]
    lower = [s.dim for s in alg.lower_central_series()]
    center = alg.center().dim
    killing = alg.killing_form()
    duality = is_self_dual(alg)
    report = {
        "dim": alg.dim,
        "abelian": alg.is_abelian(),
        "derived_dims": derived,
        "lower_central_dims": lower,
        "center_dim": center,
        "solvable": derived[-1] == 0,
        "nilpotent": lower[-1] == 0,
        "killing": _grid_json(killing.matrix.rows),
        "self_dual": duality.verdict,
    }
    if duality.metric is not None:
        report["invariant_metric"] = _grid_json(duality.metric.matrix.rows)
    if duality.certificate is not None:
        report["certificate"] = duality.certificate
    if duality.reason is not None:
        report["reason"] = duality.reason
    if metric is not None:
        report["file_metric_invariant"] = metric.is_invariant(alg)
        report["file_metric_nondegenerate"] = metric.is_nondegenerate()
    human = [
        f"dim {alg.dim}" + (", Abelian" if report["abelian"] else ""),
        f"derived series dims: {derived}",
        f"lower central series dims: {lower}",
        f"center dim: {center}",
        f"solvable: {report['solvable']}, nilpotent: {report['nilpotent']}",
        f"self-dual: {duality.verdict}",
    ]
    if duality.reason is not None:
        human.append(f"  reason: {duality.reason}")
    if metric is not None:
        human.append(
            f"file metric: invariant={report['file_metric_invariant']}, "
            f"non-degenerate={report['file_metric_nondegenerate']}")
    return 0, report, human


def _split_json(split):
    if split is None:
        return None
    return {"component": _grid_json(split.component.basis),
            "complement": _grid_json(split.complement.basis)}


def _cmd_classify(args):
    """One path for a family member and a file: only the algebra, the
    metric and the candidate ideals come from different places."""
    if (args.file is None) == (args.n is None):
        raise _Usage("classify takes either FILE or --family an --n N")
    if args.family != "an":
        raise _Usage("only --family an is supported")
    n = args.n
    if n is not None:
        if MOD3_BALANCED.value(n) != 0 or n < 3:
            raise _Usage(
                "the family classification needs n >= 3 with n mod 3 = 0")
        alg, metric = truncated_algebra(n), canonical_metric(n)
        ideals = classify_ideals(n, cross_check=False).subspaces()
    else:
        cap = _brute_cap()
        alg, metric = load_algebra(args.file)
        if metric is None:
            raise _Usage("classify FILE needs a metric in the file")
        ideals = _coordinate_ideals(alg, cap)
    try:
        split = decomposability_check(alg, metric, ideals)
    except ValueError as exc:
        raise _Failure(str(exc))
    report = {"decomposable": split is not None, "split": _split_json(split)}
    human = [f"decomposable: {split is not None}"]
    if split is not None:
        human.append(f"component indices: {list(split.component.pivot_columns())}")
    if n is None:
        return 0, report, human
    verdict = deeper_verdict(n)
    report = {"n": n, **report, "candidates": list(verdict.candidates),
              "verdict": verdict.verdict.value}
    human = [f"family member n={n} (dim {n + 1})", *human,
             f"double-extension candidates m: {report['candidates']}",
             f"verdict: {verdict.verdict.value}"]
    return 0, report, human


def _load_matrix_file(path, field) -> list[Matrix]:
    """A bare JSON list of matrices (rows of canonical scalar strings)."""
    doc = read_json(path)
    if isinstance(doc, dict) and "action" in doc:
        doc = doc["action"]
    if not isinstance(doc, list):
        raise AlgebraFileError(f"{path}: expected a list of matrices")
    return [parse_grid(field, grid, f"{path}: matrix {idx}")
            for idx, grid in enumerate(doc)]


def _load_form_file(path, field) -> BilinearForm:
    """A symmetric matrix, bare or under a 'metric' key, parsed like a
    document's metric; a wrong size fails the construction's validation."""
    doc = read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("metric")
    dim = len(doc) if isinstance(doc, list) else 0
    return _parse_metric(field, doc, dim, {}, "the pairing form", f"{path}: ")


def _cmd_dext(args):
    cap = _brute_cap()
    base_alg, omega = load_algebra(args.base)
    if omega is None:
        raise _Usage("--base file must carry the metric of the Abelian part")
    if not base_alg.is_abelian():
        raise _Usage("--base algebra must be Abelian")
    acting, _ = load_algebra(args.by)
    if acting.field != base_alg.field:
        raise _Usage("--base and --by files use different fields")
    action = _load_matrix_file(args.action, base_alg.field)
    pairing = None
    if args.pairing is not None:
        pairing = _load_form_file(args.pairing, base_alg.field)
    inp = DoubleExtensionInput(
        abelian_dim=base_alg.dim, omega=omega, acting=acting,
        action=tuple(action), pairing=pairing)
    out, metric = _construct(double_extend, inp, args.output)
    try:
        ideals = _coordinate_ideals(out, cap)
    except _Usage:
        verdict = "unknown"
    else:
        split = decomposability_check(out, metric, ideals)
        verdict = "yes" if split is not None else "no"
    report = {
        "dim": out.dim,
        "decomposable": verdict,
        "output": args.output,
    }
    human = [
        f"wrote {args.output}: double extension of dim {out.dim} "
        f"(acting {acting.dim} + Abelian {base_alg.dim} + dual {acting.dim})",
        "postconditions: jacobi ok, metric invariant and non-degenerate",
        f"decomposable: {verdict}",
    ]
    return 0, report, human


def _parse_index_list(text: str, dim: int) -> list[int]:
    try:
        indices = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise _Usage(f"bad index list {text!r}")
    if not indices:
        raise _Usage("subalgebra index list is empty")
    if len(set(indices)) != len(indices):
        raise _Usage("subalgebra index list has duplicates")
    for i in indices:
        if not 0 <= i < dim:
            bounds = f"0..{dim - 1}" if dim else "(the basis is empty)"
            raise _Usage(f"subalgebra index {i} out of range {bounds}")
    return sorted(indices)


def _cmd_wigner(args):
    alg, metric = load_algebra(args.algebra)
    if metric is None:
        raise _Usage("--algebra file must carry an invariant metric")
    indices = _parse_index_list(args.subalgebra, alg.dim)
    b0 = Subspace.coordinate(alg.field, alg.dim, indices)
    inp = ContractionInput(algebra=alg, metric=metric, subalgebra=b0)
    out, _ = _construct(wigner_contract, inp, args.output)
    report = {
        "dim": out.dim,
        "subalgebra_indices": indices,
        "output": args.output,
    }
    human = [
        f"wrote {args.output}: contraction along {{{', '.join(map(str, indices))}}}, "
        f"output dim {out.dim}",
        "postconditions: jacobi ok, metric invariant and non-degenerate",
    ]
    return 0, report, human


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="liealg",
        description="Exact computations with structure-constant Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true",
                        help="print the machine JSON report to stdout")
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine JSON report to PATH")

    p = sub.add_parser("gen", parents=[common],
                       help="generate a family member file")
    p.add_argument("--family", required=True, choices=["an"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--hat", default="mod3",
                   help="mod3 (default), identity, or zmod:P")
    p.add_argument("--field", default="Q", choices=["Q", "Fp"])
    p.add_argument("--metric", default=None, metavar="b=RATIONAL",
                   help="include the canonical metric with the given b")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="verify a property of a file, with witnesses")
    p.add_argument("property", choices=["jacobi", "invariance", "grading"])
    p.add_argument("file")

    p = sub.add_parser("ideals", parents=[common],
                       help="enumerate coordinate ideals")
    p.add_argument("file")
    p.add_argument("--classify-an", action="store_true",
                   help="cross-check against the family closed form")

    p = sub.add_parser("analyze", parents=[common],
                       help="series, center, Killing form, self-duality")
    p.add_argument("file")

    p = sub.add_parser("classify", parents=[common],
                       help="decomposability and construction verdicts")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--family", default="an")
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("dext", parents=[common],
                       help="double extension of an Abelian metric file")
    p.add_argument("--base", required=True,
                   help="Abelian algebra file with metric")
    p.add_argument("--by", required=True, help="acting algebra file")
    p.add_argument("--action", required=True,
                   help="JSON list of action matrices")
    p.add_argument("--F", dest="pairing", default=None,
                   help="optional pairing form on the acting algebra")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("wigner", parents=[common],
                       help="contraction along a coordinate subalgebra")
    p.add_argument("--algebra", required=True,
                   help="metric algebra file")
    p.add_argument("--subalgebra", required=True,
                   help="comma-separated basis indices")
    p.add_argument("-o", "--output", required=True)
    return parser


def _emit(args, code: int, report: dict, human: list[str]):
    envelope = {"command": args.command, "ok": code == 0, "exit_code": code}
    envelope.update(report)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(envelope, indent=2) + "\n")
    if args.porcelain:
        print(json.dumps(envelope, indent=2))
    else:
        for line in human:
            print(line)
    sys.stdout.flush()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            # looked up on each call, so rebinding a _cmd_* function (as
            # perfbench's tracer does) works with the parser built once
            handler = globals()["_cmd_" + args.command]
            code, report, human = handler(args)
        except _Failure as exc:
            code, report, human = (1, {"error": str(exc), **exc.details},
                                   [f"FAIL: {exc}"])
        _emit(args, code, report, human)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraFileError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read or write file: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
