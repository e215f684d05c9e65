"""Evaluation metrics: the confusion matrix, switching effectivity and final-error CDF
of tracked trials against their ground truth, and the text report of them."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .crossing import SwitchEvent
from .errors import InvalidInputError, InvalidParameterError
from .geometry import distance
from .sim import GroundTruth


@dataclass
class EvalReport:
    true_positive_rate: float
    false_negative_rate: float
    true_negative_rate: float
    false_positive_rate: float
    effectivity: dict[str, float]  # percent detected per trial group
    final_errors: list[float]
    cdf: list[tuple[float, float]]
    counts: dict[str, int]
    false_switches_per_trial: float  # defined even when the suite has no turn-backs


def _match_switches(switches: list[SwitchEvent], truth: GroundTruth, window: int):
    """(matched, unmatched) switch counts. Crossings and switches both go in step
    order, each crossing taking the earliest free switch for its door within
    window steps: in that order the greedy matching is a maximum one."""
    switches = sorted(switches, key=lambda sw: sw.step_index)
    used = [False] * len(switches)
    tp = 0
    for step_idx, door_id in sorted(truth.crossings):
        for i, sw in enumerate(switches):
            if not used[i] and sw.door_id == door_id and abs(sw.step_index - step_idx) <= window:
                used[i] = True
                tp += 1
                break
    fp = used.count(False)
    return tp, fp


def evaluate(results, match_window: int = 5) -> EvalReport:
    """Confusion matrix, switching effectivity, and final-error CDF.

    Each result pairs one trial's EventLog with its GroundTruth. A true
    crossing counts as detected when a switch for the same door lands within
    match_window steps of the true crossing step. Negative opportunities are
    the truth's turn-back approaches; a trial's unmatched switches count
    against at most that trial's approaches, so FPR stays within [0, 1].
    counts["false_positives"] keeps every unmatched switch, and so does
    false_switches_per_trial, which a suite without turn-backs still has.
    """
    if match_window < 0:
        raise InvalidParameterError(f"match_window must be >= 0, got {match_window}")
    results = list(results)
    if not results:
        raise InvalidInputError("no trials to evaluate")

    positives = negatives = tp = fp = charged = 0
    group_tp: dict[str, int] = {}
    group_pos: dict[str, int] = {}
    final_errors: list[float] = []
    for log, truth in results:
        trial_tp, trial_fp = _match_switches(log.switches, truth, match_window)
        positives += len(truth.crossings)
        negatives += len(truth.turn_backs)
        tp += trial_tp
        fp += trial_fp
        charged += min(trial_fp, len(truth.turn_backs))
        group = truth.group or "all"
        group_tp[group] = group_tp.get(group, 0) + trial_tp
        group_pos[group] = group_pos.get(group, 0) + len(truth.crossings)
        last = log.poses[-1].position if log.poses else truth.initial_position
        final_errors.append(distance(last, truth.final_position))

    tpr = tp / positives if positives else float("nan")
    fpr = charged / negatives if negatives else float("nan")
    ordered = sorted(final_errors)
    n = len(ordered)
    cdf = [(e, (i + 1) / n) for i, e in enumerate(ordered)]
    effectivity = {
        g: (100.0 * group_tp[g] / group_pos[g]) if group_pos[g] else float("nan")
        for g in sorted(group_tp)
    }
    return EvalReport(
        true_positive_rate=tpr,
        false_negative_rate=1.0 - tpr,
        true_negative_rate=1.0 - fpr,
        false_positive_rate=fpr,
        effectivity=effectivity,
        final_errors=final_errors,
        cdf=cdf,
        counts={
            "true_positives": tp,
            "false_negatives": positives - tp,
            "false_positives": fp,
            "true_negatives": negatives - charged,
            "positives": positives,
            "negatives": negatives,
            "trials": len(results),
        },
        false_switches_per_trial=fp / len(results),
    )


def cdf_fraction_below(cdf: list[tuple[float, float]], x: float) -> float:
    """Fraction of errors strictly below x, read off the CDF step function."""
    frac = 0.0
    for err, cum in cdf:
        if err < x:
            frac = cum
        else:
            break
    return frac


def format_report(report: EvalReport) -> str:
    c = report.counts

    def pct(x: float) -> str:
        return "n/a" if math.isnan(x) else f"{100.0 * x:.1f}%"

    lines = [
        "Door crossing evaluation",
        "========================",
        f"trials: {c['trials']}",
        f"true crossings: {c['positives']}   detected: {c['true_positives']}",
        f"negative approaches: {c['negatives']}   false switches: {c['false_positives']}",
        f"false switches per trial: {report.false_switches_per_trial:.3f}",
        "",
        "Confusion matrix (door crossing detection)",
        "                     actual positive   actual negative",
        f"estimated positive   {pct(report.true_positive_rate):>15}   {pct(report.false_positive_rate):>15}",
        f"estimated negative   {pct(report.false_negative_rate):>15}   {pct(report.true_negative_rate):>15}",
        "",
        "Switching effectivity by trial group",
    ]
    for group, eff in report.effectivity.items():
        value = "n/a" if math.isnan(eff) else f"{eff:.1f}%"
        lines.append(f"  {group}: {value}")
    errs = report.final_errors
    lines += [
        "",
        "Final position error [m]",
        f"  min {min(errs):.3f}   max {max(errs):.3f}   average {sum(errs) / len(errs):.3f}",
        f"  70% of errors at or below {report.cdf[math.ceil(0.7 * len(errs)) - 1][0]:.3f} m",
    ]
    return "\n".join(lines) + "\n"
