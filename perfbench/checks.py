"""Output checks of the benchmark, and their self-test.

Every check takes the outputs of one unit of work and returns one
message per failed operation (empty list: all correct).  The driver adds
the messages to ``failed``; any message makes the command exit
nonzero.  :func:`self_test` re-runs each check on deliberately altered
copies of the same unit's real outputs and reports whether it fired.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional

STAGES = ("layout", "validate", "package", "benes", "saturation")

#: Skips the campaign is expected to record (engine service caps).
_EXPECTED_SKIPS = {
    "benes": "above benes service cap",
    "saturation": "above sim service cap",
}


def _dims_area(dims: Optional[List[int]]) -> Optional[int]:
    """The layout area the ``dims`` answer predicts: its width and height
    include the trailing channel gap of 2 that the built layout's
    bounding box does not (pinned by the grid-scheme tests)."""
    return None if dims is None else (dims[0] - 2) * (dims[1] - 2)


def _stage_problem(pid: str, name: str, rec: Optional[Dict],
                   area: Optional[int]) -> Optional[str]:
    if rec is None:
        return f"{pid}: {name} record missing"
    if rec["status"] == "skipped":
        reason = _EXPECTED_SKIPS.get(name)
        if reason and reason in (rec.get("error") or ""):
            return None
        return f"{pid}: {name} skipped unexpectedly ({rec.get('error')})"
    if rec["status"] != "ok":
        return f"{pid}: {name} status {rec['status']} ({rec.get('error')})"
    s = rec["summary"] or {}
    if name == "layout":
        if s.get("valid") is not True:
            return f"{pid}: layout not valid"
        if s.get("area") != area:
            return f"{pid}: layout area {s.get('area')} != dims area {area}"
    if name == "validate" and not (s.get("valid") and
                                   s.get("artifact_verified")):
        return f"{pid}: validate did not verify the layout artifact"
    if name == "package" and s.get("all_match") is not True:
        return f"{pid}: package exact pins do not match closed forms"
    if name == "benes" and s.get("realized_ok") is not True:
        return f"{pid}: benes settings do not realize the permutations"
    return None


def check_campaign(manifest: Dict, dims: Dict[str, List[int]]) -> List[str]:
    """Every stage record ok or an expected skip; layout valid with the
    area the ``dims`` answer (``[width, height]`` per point) predicts;
    validate re-verified the artifact; package ``all_match``; Benes
    ``realized_ok``."""
    fails = []
    for pt in manifest["points"]:
        for name in STAGES:
            msg = _stage_problem(pt["id"], name, pt["stages"].get(name),
                                 _dims_area(dims.get(pt["id"])))
            if msg:
                fails.append(msg)
    return fails


def check_layout(out: Dict, ref: Dict) -> List[str]:
    """A chunked answer is valid and byte-identical (result body and
    array payload) to the monolithic answer for the same design."""
    if out["rc"] != 0 or not out["valid"]:
        return [f"layout query rc={out['rc']} valid={out['valid']}"]
    for field in ("result_sha256", "arrays_sha256"):
        if out[field] != ref[field]:
            return [f"layout {field} differs from the monolithic answer"]
    return []


def check_hits(hits: List, ref: Dict[str, str]) -> List[str]:
    """Each warm answer was served from the cache and is byte-identical
    to the cold answer for the same key.  ``hits`` rows are
    ``[key, body_sha256, cache_disposition]``."""
    fails = []
    for key, sha, disposition in hits:
        if disposition != "hit":
            fails.append(f"{key[:12]}: re-fetch was a {disposition}")
        elif ref.get(key) != sha:
            fails.append(f"{key[:12]}: hit body differs from its cold answer")
    return fails


def campaign_refs(manifest: Dict) -> Dict[str, str]:
    """``cache key -> result digest`` of every query a campaign made."""
    return {q["key"]: q["result_sha256"]
            for pt in manifest["points"]
            for rec in pt["stages"].values()
            for q in rec["queries"]}


def check_responses(rows: List[Dict], miss_bodies: Dict[int, bytes]
                    ) -> List[str]:
    """Query mix: every response is a 200 and every answer after the
    first is byte-identical to the first (the miss) for that query."""
    fails = []
    for r in rows:
        if r["status"] != 200:
            fails.append(f"req {r['req']}: HTTP {r['status']}")
        elif r["body"] != miss_bodies.get(r["qid"]):
            fails.append(f"req {r['req']}: body differs from its miss")
    return fails


# ----------------------------------------------------------------------
# self-test: each check must fire on an altered copy of a real output
# ----------------------------------------------------------------------

def _first_stage(manifest: Dict, name: str) -> Dict:
    return manifest["points"][0]["stages"][name]


def _alter(obj, fn: Callable) -> object:
    c = copy.deepcopy(obj)
    fn(c)
    return c


def _fires(check: Callable, *args) -> bool:
    return bool(check(*args))


def self_test(kind: str, outputs: Dict) -> Dict[str, bool]:
    """``{alteration: fired}`` for the checks of one workload kind,
    applied to this unit's own outputs."""
    res: Dict[str, bool] = {}
    if kind == "campaign":
        m, dims = outputs["manifest"], outputs["dims"]
        alterations = {
            "stage_failed": lambda c: _first_stage(c, "package").update(
                status="failed"),
            "unexpected_skip": lambda c: _first_stage(c, "benes").update(
                status="skipped", error="n/a"),
            "layout_invalid": lambda c: _first_stage(c, "layout")[
                "summary"].update(valid=False),
            "layout_area": lambda c: _first_stage(c, "layout")[
                "summary"].update(area=_first_stage(c, "layout")[
                    "summary"]["area"] + 1),
            "artifact_unverified": lambda c: _first_stage(c, "validate")[
                "summary"].update(artifact_verified=False),
            "package_mismatch": lambda c: _first_stage(c, "package")[
                "summary"].update(all_match=False),
            "benes_unrealized": lambda c: _first_stage(c, "benes")[
                "summary"].update(realized_ok=False),
        }
        for name, fn in alterations.items():
            res[name] = _fires(check_campaign, _alter(m, fn), dims)
    if kind == "layout":
        out, ref = outputs["out"], outputs["ref"]
        res["layout_body"] = _fires(check_layout, _alter(
            out, lambda c: c.update(result_sha256="0" * 64)), ref)
        res["layout_payload"] = _fires(check_layout, _alter(
            out, lambda c: c.update(arrays_sha256="0" * 64)), ref)
        res["layout_invalid"] = _fires(check_layout, _alter(
            out, lambda c: c.update(valid=False)), ref)
    if kind in ("campaign", "layout") and outputs["hits"]:
        hits, ref = outputs["hits"], outputs["hit_refs"]
        res["hit_body"] = _fires(check_hits, _alter(
            hits, lambda c: c[0].__setitem__(1, "0" * 64)), ref)
        res["hit_not_cached"] = _fires(check_hits, _alter(
            hits, lambda c: c[0].__setitem__(2, "miss")), ref)
    if kind == "query_mix":
        rows, bodies = outputs["rows"], outputs["miss_bodies"]
        res["response_body"] = _fires(check_responses, _alter(
            rows, lambda c: c[-1].update(body=c[-1]["body"] + b" ")), bodies)
        res["response_status"] = _fires(check_responses, _alter(
            rows, lambda c: c[-1].update(status=500)), bodies)
    return res
