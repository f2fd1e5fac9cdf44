"""Checks of each request's report against the independent references.

Only semantic fields are compared (counts, lambda, entropy, K_estimate,
B_estimate, leaf_count and the like), never the report bytes, so a change
that adds or reshapes report fields still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import reference as ref
from workloads import THREE_LETTER


class CheckFailed(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _reject_constant(name):
    raise CheckFailed(f"report is not strict JSON: {name}")


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _gap_set(req) -> ref.GapSet:
    return ref.parse_gap_set(req.params["s"])


def _counts(req, n_max: int):
    name = req.params.get("automaton")
    if name is None:
        return ref.gap_counts(_gap_set(req), n_max)
    if name == "even":
        return ref.gap_counts(ref.GapSet([], [1, 0]), n_max)
    if name == "golden":
        return ref.fibonacci_counts(n_max)
    if name == "sft4":
        return ref.four_letter_counts(n_max)
    return ref.sft_counts(THREE_LETTER[0], THREE_LETTER[1].split(","), n_max)


def _check_root(gs: ref.GapSet, lam: float, entropy: float, tol: float) -> None:
    _expect(1.0 <= lam <= 2.0, f"lambda {lam} outside [1, 2]")
    residual = gs.series(lam) - 1.0
    _expect(abs(residual) <= 2 * tol + 1e-12, f"series at lambda is off by {residual:.3e}")
    _expect(_close(entropy, math.log2(lam), 1e-12), "entropy is not log2(lambda)")


def check_blocks(req, text):
    n = req.params["n"]
    counts = _counts(req, n)
    if req.params["format"] == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        _expect(rows[0][:2] == ["n", "count"], "bad CSV header")
        _expect([int(r[0]) for r in rows[1:]] == list(range(1, n + 1)), "CSV lengths")
        for r in rows[1:]:
            k, c = int(r[0]), int(r[1])
            _expect(c == counts[k], f"count at n={k}")
            _expect(_close(float(r[2]), math.log2(c), 1e-9 * max(1.0, k)), f"log2 at n={k}")
        return
    result = _result(text)
    _expect(result["n"] == n, "n")
    _expect(result["counts"] == {str(k): counts[k] for k in range(1, n + 1)}, "counts")
    _expect(result["count_at_n"] == counts[n], "count_at_n")


def check_bsm(req, text):
    result = _result(text)
    depth = req.params["depth"]
    expected = ref.bsm_constant(_counts(req, 2 * depth), depth)
    _expect(Fraction(result["K_estimate"]) == expected, f"K_estimate != {expected}")
    _expect(result["depth_tested"] == depth, "depth_tested")


def check_balanced(req, text):
    result = _result(text)
    p = req.params
    expected = ref.min_follower_density(_gap_set(req), p["word_max"], p["r_max"])
    _expect(Fraction(result["B_estimate"]) == expected, f"B_estimate != {expected}")


def check_gibbs(req, text):
    result = _result(text)
    gs = _gap_set(req)
    depth = req.params["depth"]
    window = depth // 2
    h = result["entropy"]
    _check_root(gs, 2.0**h, h, req.params["tol"])
    counts = ref.gap_counts(gs, depth)
    _expect(Fraction(result["c2"]) == ref.bsm_constant(counts, window), "c2 (K_estimate)")
    _expect(
        Fraction(result["c1"]) == ref.min_follower_density(gs, window, window),
        "c1 (B_estimate)",
    )
    _expect(
        result["cell_count"] == window * len(ref.follower_classes(gs, window)),
        "cell_count",
    )
    for k in range(1, depth + 1):
        expected = 2.0 ** (k * h) / counts[k]
        _expect(_close(result["ratios"][str(k)], expected, 1e-6 * expected), f"ratio {k}")


def check_entropy(req, text):
    result = _result(text)
    lam, tol = result["lambda"], req.params["tol"]
    _check_root(_gap_set(req), lam, result["entropy"], tol)
    p = req.params.get("period")
    if p is not None:
        _expect(_close(lam, 2.0 ** (1.0 / p), tol), f"lambda != 2^(1/{p})")


def check_classify(req, text):
    result = _result(text)
    gs = _gap_set(req)
    g, gap_sup = ref.gcd_and_gap_sup(gs)
    expected = {
        "is_sft": ref.is_sft(gs),
        "is_almost_specified": True,
        "is_mixing": g == 1,
        "has_specification": g == 1,
        "gap_sup": gap_sup,
        "gcd_value": g,
    }
    for key, value in expected.items():
        _expect(result[key] == value, key)


def check_bridge(req, text):
    result = _result(text)
    p = req.params
    if "s" in p:
        gs = _gap_set(req)
        digits = "".join("1" if gs.contains(j) else "0" for j in range(p["length"]))
        _expect(result["digits"] == digits, "digits")
    elif "digits" in p:
        gs = ref.GapSet([int(c) for c in p["digits"]], [0])
    else:
        gs = ref.GapSet([int(c) for c in p["pre"]], [int(c) for c in p["pat"]])
    _expect(ref.parse_gap_set(result["spec"]).same_set(gs), "spec")
    if "s" not in p:
        _check_root(gs, result["lambda"], result["entropy"], p["tol"])


def check_expand(req, text):
    result = _result(text)
    p = req.params
    lam, x = p["lam"], p["x"]
    digits = [int(c) for c in result["digits"]]
    _expect(result["lambda"] == lam, "lambda")
    _expect(len(digits) == p["depth"], "digit count")
    right, eps = 1.0 / (lam - 1.0), 1e-9
    y = x
    for d in digits:
        if p["mode"] == "greedy" and d == 0:
            _expect(y < 1.0 / lam + eps, "greedy took 0 where 1 fits")
        if p["mode"] == "lazy" and d == 1:
            _expect(y > right / lam - eps, "lazy took 1 where 0 fits")
        y = lam * y - d
        _expect(-eps <= y <= right + eps, "orbit left the interval")
    residual = abs(x - math.fsum(d * lam ** -(j + 1) for j, d in enumerate(digits)))
    _expect(_close(result["residual"], residual, 1e-12), "residual")
    _expect(residual <= lam ** -len(digits) * right + eps, "residual above the tail bound")


def check_enumerate_one(req, text):
    result = _result(text)
    p = req.params
    words = [leaf["digits"] for leaf in result["leaves"]]
    _expect(result["leaf_count"] == len(words), "leaf_count")
    _expect(words == sorted(set(words)), "leaves not distinct and sorted")
    found = set(words)
    if p.get("golden"):
        _expect(found == ref.golden_leaf_words(p["depth"]), "golden families")
        return
    slack = max(8.0 * p["tol"], 1e-10)
    _expect(ref.expansion_leaves(p["lam"], p["depth"], 0.0) <= found, "missing leaves")
    _expect(found <= ref.expansion_leaves(p["lam"], p["depth"], slack), "spurious leaves")


def check_kl(req, text):
    result = _result(text)
    lam = result["lambda_kl"]
    _expect(_close(lam, ref.KOMORNIK_LORETI, req.params["tol"] + 1e-12), "lambda_kl")
    _expect(_close(result["log2_lambda_kl"], math.log2(lam), 1e-12), "log2_lambda_kl")
    _expect(_close(result["ln_lambda_kl"], math.log(lam), 1e-12), "ln_lambda_kl")


def _result(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable report: {exc}") from exc


CHECKS = {
    "blocks": check_blocks,
    "check-bsm": check_bsm,
    "check-balanced": check_balanced,
    "gibbs": check_gibbs,
    "entropy": check_entropy,
    "classify": check_classify,
    "bridge": check_bridge,
    "expand": check_expand,
    "enumerate-one": check_enumerate_one,
    "kl": check_kl,
}


def check(req, exit_code: int, stdout: str) -> str | None:
    """None when the request's report is right, else why it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        CHECKS[req.command](req, stdout)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    return None
