"""Threshold pruning of discretized thermal couplings.

The matrix exponential couples every element to every other; most of those
couplings are tiny when the sample time is short against the thermal time
constants. Zeroing them shrinks the condensed QP from quadratic to linear
growth in the element count. Entries belonging to the continuous-time
structure (and the diagonal) are never removed, so the model's physical
topology survives any cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .simulate import rmse_series, run_closed_loop
from .thermal import ThermalPlantModel

DEFAULT_CUTOFF = 0.005


def prune_matrix(mat, cutoff, keep_mask=None):
    """Zero entries with \\|value\\| < cutoff, except kept positions.

    The diagonal is always kept; ``keep_mask`` marks additional protected
    positions (typically the continuous-time nonzero structure) and must
    have the matrix's shape, since a broadcast row or column would protect
    whole columns or rows.
    """
    if not cutoff >= 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    mat = np.asarray(mat)
    out = mat.copy()
    drop = np.abs(mat) < cutoff
    if keep_mask is not None:
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != mat.shape:
            raise ValueError(f"keep_mask must have the matrix's shape {mat.shape}, "
                             f"got {keep_mask.shape}")
        drop &= ~keep_mask
    if mat.shape[0] == mat.shape[1]:
        np.fill_diagonal(drop, False)
    out[drop] = 0.0
    return out


def prune_model(model: ThermalPlantModel, cutoff) -> ThermalPlantModel:
    """Prune the discretized state and input matrices of a model."""
    if model.d is None:
        raise ValueError("model must be discretized before pruning")
    d_pruned = prune_matrix(model.d, cutoff, keep_mask=model.a_t != 0)
    e_pruned = prune_matrix(model.e, cutoff, keep_mask=model.b_t != 0)
    return replace(model, d=d_pruned, e=e_pruned)


@dataclass
class CutoffReport:
    cutoff: float
    deviations: dict          # candidate -> max |RMSE difference| [degC]
    baseline_rmse: np.ndarray
    band: float


class CutoffSelectionError(RuntimeError):
    def __init__(self, best, deviation, band):
        super().__init__(
            f"no candidate keeps the prediction error within +/-{band} degC; "
            f"best was {best} with max deviation {deviation:.3f} degC")
        self.best_candidate = best
        self.deviation = deviation


def select_cutoff(model: ThermalPlantModel, scenario, candidates,
                  band=0.5, solver_settings=None) -> tuple[float, CutoffReport]:
    """Pick the most aggressive cutoff that stays inside the error band.

    Runs the closed loop once with the unpruned model and once per
    candidate; compares the per-step RMSE between predicted and measured
    temperatures. The largest candidate whose worst-case RMSE deviation
    stays within ``band`` wins (ties break toward more pruning).
    """
    candidates = sorted(set(float(c) for c in candidates))
    if not candidates:
        raise ValueError("no candidate cutoff given")
    bad = [c for c in candidates if not c >= 0]
    if bad:
        raise ValueError(f"candidate cutoffs must be non-negative, got {bad}")
    if not band >= 0:
        raise ValueError(f"band must be non-negative, got {band}")
    baseline = run_closed_loop(model, scenario, solver_settings=solver_settings)
    base_rmse = rmse_series(baseline)

    deviations = {}
    for cutoff in candidates:
        if cutoff == 0.0:
            deviations[cutoff] = 0.0
            continue
        pruned = prune_model(model, cutoff)
        trace = run_closed_loop(model, scenario, controller_model=pruned,
                                solver_settings=solver_settings)
        deviations[cutoff] = float(np.max(np.abs(rmse_series(trace) - base_rmse)))

    passing = [c for c in candidates if deviations[c] <= band]
    report = CutoffReport(cutoff=np.nan, deviations=deviations,
                          baseline_rmse=base_rmse, band=band)
    if not passing:
        best = min(candidates, key=lambda c: deviations[c])
        raise CutoffSelectionError(best, deviations[best], band)
    chosen = max(passing)
    report.cutoff = chosen
    return chosen, report
