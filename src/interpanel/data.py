"""Panel data model: loading, validation, and derived regressor blocks.

The observed sample is a balanced panel (Y, X, G, Z, H). X carries the
unit-specific random coefficients, G and H are time-varying and
time-invariant interaction variables, Z are additive controls. This
module builds the per-unit interaction blocks and projects each unit's
own X_i (CITE) or X_{i,-1} (ITE) out of them and out of Y_i, once; both
estimators and their standard errors consume the projected blocks.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import RANK_TOL, RankDeficient, gram_det, residual_makers

# Numeric text format used by the CSV writer; round-trips float64 exactly.
FLOAT_FORMAT = "%.17g"

DEFAULT_H_MIN = 1e-8


class PanelDataError(ValueError):
    """Base class for panel construction errors."""


class MissingColumn(PanelDataError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"required column missing: {column!r}")


class UnbalancedPanel(PanelDataError):
    def __init__(self, unit, expected, found):
        self.unit = unit
        self.expected = expected
        self.found = found
        super().__init__(
            f"unbalanced panel: unit {unit!r} has {found} rows, expected {expected}"
        )


class NonConstantH(PanelDataError):
    def __init__(self, unit, column):
        self.unit = unit
        self.column = column
        super().__init__(
            f"column {column!r} varies within unit {unit!r}; "
            "h columns must be constant per unit"
        )


class NonFiniteValue(PanelDataError):
    def __init__(self, row, column=None):
        self.row = row
        self.column = column
        where = f"row {row}" if column is None else f"row {row}, column {column!r}"
        super().__init__(f"non-finite value at {where}")


class MissingField(PanelDataError):
    def __init__(self, row, column):
        self.row = row
        self.column = column
        super().__init__(f"row {row} has fewer fields than the header: "
                         f"no value for column {column!r}")


@dataclass(frozen=True)
class Dims:
    """Dimension bookkeeping for a balanced panel.

    n: units, T: periods per unit, K_x: regressors with unit-specific
    coefficients, K_g: time-varying interaction variables, K_z: controls,
    K_h: time-invariant interaction variables.
    """

    n: int
    T: int
    K_x: int
    K_g: int = 0
    K_z: int = 0
    K_h: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 units, got n={self.n}")
        if self.T < 1:
            raise ValueError(f"need at least 1 period, got T={self.T}")
        if self.K_x < 1:
            raise ValueError(f"need at least 1 x regressor, got K_x={self.K_x}")
        for name in ("K_g", "K_z", "K_h"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.T < self.K_x:
            raise ValueError(
                f"per-unit regressions unsolvable: T={self.T} < K_x={self.K_x}"
            )
        if self.T * self.n <= self.K_x * self.K_g + self.K_z:
            raise ValueError("not enough observations for the pooled stage")

    @property
    def n_psi(self):
        """Columns of the pooled interaction/control block."""
        return self.K_x * self.K_g + self.K_z

    @property
    def n_psi_tilde(self):
        """Columns of the one-step (ITE) regressor block."""
        return self.K_h + self.n_psi


def default_columns(dims):
    """Default column names: x1.., g1.., z1.., h1.. ."""
    return {
        "x": [f"x{j + 1}" for j in range(dims.K_x)],
        "g": [f"g{j + 1}" for j in range(dims.K_g)],
        "z": [f"z{j + 1}" for j in range(dims.K_z)],
        "h": [f"h{j + 1}" for j in range(dims.K_h)],
    }


@dataclass(frozen=True)
class PanelDataset:
    """Balanced panel, immutable after construction.

    Y is (n, T); X is (n, T, K_x); G is (n, T, K_g); Z is (n, T, K_z);
    H is (n, K_h), stored once per unit. `columns` maps each block to its
    column names (used for output labels).
    """

    dims: Dims
    Y: np.ndarray
    X: np.ndarray
    G: np.ndarray
    Z: np.ndarray
    H: np.ndarray
    unit_labels: tuple
    time_labels: tuple
    columns: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.dims
        shapes = {
            "Y": (self.Y.shape, (d.n, d.T)),
            "X": (self.X.shape, (d.n, d.T, d.K_x)),
            "G": (self.G.shape, (d.n, d.T, d.K_g)),
            "Z": (self.Z.shape, (d.n, d.T, d.K_z)),
            "H": (self.H.shape, (d.n, d.K_h)),
        }
        for name, (got, want) in shapes.items():
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
        for name in ("Y", "X", "G", "Z", "H"):
            arr = getattr(self, name)
            if arr.size and not np.all(np.isfinite(arr)):
                raise NonFiniteValue(row=int(np.argmax(~np.isfinite(arr.reshape(-1)))),
                                     column=name)
        if len(self.unit_labels) != d.n or len(self.time_labels) != d.T:
            raise ValueError("label lists do not match dims")
        if not self.columns:
            object.__setattr__(self, "columns", default_columns(d))


def make_dataset(Y, X, G=None, Z=None, H=None, unit_labels=None, time_labels=None,
                 columns=None):
    """Assemble a PanelDataset from raw arrays, filling defaults."""
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, T = Y.shape
    G = np.zeros((n, T, 0)) if G is None else np.asarray(G, dtype=float)
    Z = np.zeros((n, T, 0)) if Z is None else np.asarray(Z, dtype=float)
    H = np.zeros((n, 0)) if H is None else np.asarray(H, dtype=float)
    dims = Dims(n=n, T=T, K_x=X.shape[2], K_g=G.shape[2], K_z=Z.shape[2],
                K_h=H.shape[1])
    return PanelDataset(
        dims=dims, Y=Y, X=X, G=G, Z=Z, H=H,
        unit_labels=tuple(unit_labels) if unit_labels is not None
        else tuple(range(1, n + 1)),
        time_labels=tuple(time_labels) if time_labels is not None
        else tuple(range(1, T + 1)),
        columns=columns or {},
    )


def _sorted_labels(labels):
    """Distinct labels ordered by one key over the whole set.

    The key is numeric only when every label is a number, otherwise text,
    so a column mixing numbers and text never compares the two. Equal
    numeric keys (1 and "1.0") fall back to the text.
    """
    distinct = set(labels)
    try:
        key = {v: float(v) for v in distinct}
    except (TypeError, ValueError):
        key = {v: str(v) for v in distinct}
    return sorted(distinct, key=lambda v: (key[v], str(v)))


def _parse_label(text):
    # Keep integer-looking labels as ints so simulated panels round-trip.
    try:
        return int(text)
    except ValueError:
        return text


def _resolve_schema(header, schema):
    """Map roles (unit, time, y, x/g/z/h lists) to CSV column names."""
    schema = dict(schema or {})
    roles = {
        "unit": schema.pop("unit", "unit"),
        "time": schema.pop("time", "time"),
        "y": schema.pop("y", "y"),
    }
    for block in ("x", "g", "z", "h"):
        names = schema.pop(block, None)
        if names is None:
            pat = re.compile(rf"^{block}(\d+)$")
            found = [(int(pat.match(c).group(1)), c) for c in header if pat.match(c)]
            names = [c for _, c in sorted(found)]
        elif isinstance(names, str):
            names = [names]
        roles[block] = list(names)
    if schema:
        raise ValueError(f"unknown schema keys: {sorted(schema)}")
    for key in ("unit", "time", "y"):
        if roles[key] not in header:
            raise MissingColumn(roles[key])
    for block in ("x", "g", "z", "h"):
        for c in roles[block]:
            if c not in header:
                raise MissingColumn(c)
    if not roles["x"]:
        raise MissingColumn("x1")
    return roles


def load_csv(path, schema=None):
    """Load a balanced panel from a long-format CSV.

    Required columns: unit, time, y, and x1..xK (or the names given in
    `schema`, a mapping with keys among unit/time/y/x/g/z/h where the
    block entries are lists of column names). Optional blocks g*, z*, h*.
    Rows may be in any order; they are sorted by (unit, time). h columns
    must be constant within each unit.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise PanelDataError(f"empty CSV: {path}")
        roles = _resolve_schema(reader.fieldnames, schema)
        last = reader.fieldnames[-1]
        rows = list(reader)
    if not rows:
        raise PanelDataError(f"no data rows in {path}")

    value_cols = [roles["y"]] + roles["x"] + roles["g"] + roles["z"] + roles["h"]
    units, times = [], []
    values = np.empty((len(rows), len(value_cols)))
    for r, row in enumerate(rows):
        if row[last] is None:  # a short row: DictReader pads its end with None
            raise MissingField(r + 2, next(c for c, v in row.items() if v is None))
        units.append(_parse_label(row[roles["unit"]]))
        times.append(_parse_label(row[roles["time"]]))
        for c, col in enumerate(value_cols):
            try:
                v = float(row[col])
            except ValueError:
                raise NonFiniteValue(row=r + 2, column=col) from None
            if not np.isfinite(v):
                raise NonFiniteValue(row=r + 2, column=col)
            values[r, c] = v

    unit_labels = _sorted_labels(units)
    time_labels = _sorted_labels(times)
    n, T = len(unit_labels), len(time_labels)
    uidx = {u: i for i, u in enumerate(unit_labels)}
    tidx = {t: j for j, t in enumerate(time_labels)}

    counts = np.zeros(n, dtype=int)
    grid = np.full((n, T, len(value_cols)), np.nan)
    for r in range(len(rows)):
        i, j = uidx[units[r]], tidx[times[r]]
        counts[i] += 1
        grid[i, j] = values[r]
    for i, u in enumerate(unit_labels):
        if counts[i] != T or np.any(np.isnan(grid[i, :, 0])):
            raise UnbalancedPanel(unit=u, expected=T, found=int(counts[i]))

    K_x, K_g, K_z, K_h = (len(roles[b]) for b in ("x", "g", "z", "h"))
    ofs = 1
    Y = grid[:, :, 0]
    X = grid[:, :, ofs:ofs + K_x]; ofs += K_x
    G = grid[:, :, ofs:ofs + K_g]; ofs += K_g
    Z = grid[:, :, ofs:ofs + K_z]; ofs += K_z
    H_long = grid[:, :, ofs:ofs + K_h]

    for c in range(K_h):
        varies = np.any(H_long[:, :, c] != H_long[:, :1, c], axis=1)
        if np.any(varies):
            i = int(np.argmax(varies))
            raise NonConstantH(unit=unit_labels[i], column=roles["h"][c])
    H = H_long[:, 0, :]

    return make_dataset(
        Y, X, G, Z, H, unit_labels, time_labels,
        columns={"x": roles["x"], "g": roles["g"], "z": roles["z"], "h": roles["h"]},
    )


def write_csv(ds, path):
    """Write a panel to the long CSV format with 17 significant digits."""
    cols = ds.columns
    header = (["unit", "time", "y"] + list(cols["x"]) + list(cols["g"])
              + list(cols["z"]) + list(cols["h"]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, u in enumerate(ds.unit_labels):
            for j, t in enumerate(ds.time_labels):
                row = [u, t, FLOAT_FORMAT % ds.Y[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.X[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.G[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.Z[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.H[i]]
                writer.writerow(row)


def subset_units(ds, keep):
    """Dataset restricted to the unit positions in `keep` (order kept)."""
    keep = np.asarray(keep, dtype=int)
    labels = tuple(ds.unit_labels[i] for i in keep)
    return make_dataset(
        ds.Y[keep], ds.X[keep], ds.G[keep], ds.Z[keep], ds.H[keep],
        labels, ds.time_labels, columns=ds.columns,
    )


def add_intercept_h(ds):
    """Put a constant 1 column "h_const" first in H (never implicit)."""
    H = np.column_stack([np.ones(ds.dims.n), ds.H])
    columns = dict(ds.columns)
    columns["h"] = ["h_const"] + list(ds.columns["h"])
    return make_dataset(ds.Y, ds.X, ds.G, ds.Z, H, ds.unit_labels,
                        ds.time_labels, columns=columns)


@dataclass(frozen=True)
class DerivedRegressors:
    """Every per-unit array a fit reads: the panel's own Y, X and H
    (not copies), the regressor blocks and their projections.

    Psi is (n, T, K_x*K_g + K_z): row t holds (X_t kron G_t, Z_t).
    PsiTilde is (n, T, K_h + K_x*K_g + K_z): row t holds (X_t1 * H, Psi_t).
    MPsi and MY are Psi_i and Y_i with X_i projected out (M_i Psi_i,
    M_i Y_i); M1PsiTilde and M1Y are PsiTilde_i and Y_i with X_{i,-1}
    projected out (PsiTilde and Y themselves when K_x = 1). q_x/r_x are
    the QR factors of X_i that M_i was made from. Indexed by unit first.
    """

    Y: np.ndarray
    X: np.ndarray
    H: np.ndarray
    Psi: np.ndarray
    PsiTilde: np.ndarray
    MPsi: np.ndarray
    MY: np.ndarray
    M1PsiTilde: np.ndarray
    M1Y: np.ndarray
    q_x: np.ndarray
    r_x: np.ndarray

    def take(self, idx):
        """Blocks of the units at positions `idx` (repeats allowed)."""
        return DerivedRegressors(**{f.name: getattr(self, f.name)[idx]
                                    for f in fields(self)})


def interaction_block(X, G):
    """Row-wise Kronecker block: column (k, g) holds X[..., k] * G[..., g]."""
    n, T, K_x = X.shape
    K_g = G.shape[2]
    return (X[:, :, :, None] * G[:, :, None, :]).reshape(n, T, K_x * K_g)


def build_regressors(ds):
    """Construct Psi, PsiTilde and their per-unit projections.

    The only place that projects: X_i and a nonempty X_{i,-1} are each
    factored once, and each (n, T, T) residual maker is applied to its
    block and to Y, then dropped. Raises RankDeficient (with the unit's
    label) when some X_i'X_i or X_{i,-1}'X_{i,-1} is numerically singular.
    """
    d = ds.dims
    Psi = np.concatenate([interaction_block(ds.X, ds.G), ds.Z], axis=2)
    x1_h = ds.X[:, :, 0:1] * ds.H[:, None, :]
    PsiTilde = np.concatenate([x1_h, Psi], axis=2)
    try:
        MPsi, MY, q_x, r_x = _project(ds.X, Psi, ds.Y)
        M1PsiTilde, M1Y, _, _ = _project(ds.X[:, :, 1:], PsiTilde, ds.Y)
    except Exception as exc:
        _attach_unit_label(exc, ds)
        raise
    assert Psi.shape[2] == d.n_psi and PsiTilde.shape[2] == d.n_psi_tilde
    return DerivedRegressors(Y=ds.Y, X=ds.X, H=ds.H, Psi=Psi, PsiTilde=PsiTilde,
                             MPsi=MPsi, MY=MY, M1PsiTilde=M1PsiTilde, M1Y=M1Y,
                             q_x=q_x, r_x=r_x)


def _project(X, block, Y):
    if not X.shape[2]:  # X_{i,-1} at K_x = 1 has no columns: M_i = I, nothing to do
        return block, Y, None, None
    M, Q, R = residual_makers(X)  # the (n, T, T) M is dropped on return
    return np.einsum("nij,njp->nip", M, block), np.einsum("nij,nj->ni", M, Y), Q, R


def _attach_unit_label(exc, ds):
    unit = getattr(exc, "unit", None)
    if isinstance(unit, int) and 0 <= unit < ds.dims.n:
        exc.unit = ds.unit_labels[unit]


@dataclass(frozen=True)
class ValidationReport:
    """Sample-analogue checks of the estimators' rank conditions.

    Unit i's Gram determinants are normalized by (T * mean(X_i^2))^k, so
    the h_min threshold is scale free per unit. Pooled checks report the
    smallest eigenvalue of the sample matrices (1/n) sum Psi'M Psi,
    (1/n) sum PsiTilde'M_-1 PsiTilde and (1/n) sum H'H relative to the
    largest, over the passing units: `panel` (the input itself when none
    fails), whose blocks are `regressors` (None if they fail the solver's
    rank rule). Estimation reuses both; `to_dict` omits them.
    """

    h_min: float
    unit_gram_det_x: np.ndarray
    unit_gram_det_x_minus1: np.ndarray
    unit_margin_x: np.ndarray
    unit_margin_x_minus1: np.ndarray
    failing_units_x: tuple
    failing_units_x_minus1: tuple
    pooled_margins: dict
    checks: dict
    panel: PanelDataset = field(default=None, repr=False, compare=False)
    regressors: DerivedRegressors = field(default=None, repr=False, compare=False)

    @property
    def passed(self):
        return all(self.checks.values())

    def to_dict(self):
        return {
            "h_min": self.h_min,
            "passed": self.passed,
            "checks": dict(self.checks),
            "pooled_margins": {k: float(v) for k, v in self.pooled_margins.items()},
            "failing_units_x": list(self.failing_units_x),
            "failing_units_x_minus1": list(self.failing_units_x_minus1),
            "unit_gram_det_x": self.unit_gram_det_x.tolist(),
            "unit_gram_det_x_minus1": self.unit_gram_det_x_minus1.tolist(),
        }


def _min_eig_margin(S):
    if S.shape[0] == 0:
        return 1.0
    ev = np.linalg.eigvalsh(0.5 * (S + S.T))
    top = ev[-1]
    if top <= 0.0:
        return 0.0
    return float(ev[0] / top)


def validate(ds, h_min=DEFAULT_H_MIN):
    """Check per-unit X variation and the pooled rank conditions.

    Reporting only; nothing is raised. Units whose normalized Gram
    determinant falls below h_min are listed and excluded from the pooled
    sample matrices (downstream estimation conditions on the passing
    subpopulation), whose regressors are built here, once.
    """
    d = ds.dims
    X = ds.X
    scale2 = np.mean(X * X, axis=(1, 2))
    scale2[scale2 == 0.0] = 1.0
    det_x = gram_det(X)
    det_x1 = gram_det(X[:, :, 1:])
    margin_x = det_x / (d.T * scale2) ** d.K_x
    margin_x1 = det_x1 / (d.T * scale2) ** (d.K_x - 1)

    ok_x = margin_x > h_min
    ok_x1 = margin_x1 > h_min
    fail_x = tuple(ds.unit_labels[i] for i in np.flatnonzero(~ok_x))
    fail_x1 = tuple(ds.unit_labels[i] for i in np.flatnonzero(~ok_x1))

    keep = np.flatnonzero(ok_x & ok_x1)
    pooled = {"psi_m_psi": 0.0, "psi_tilde_m1_psi_tilde": 0.0, "hth": 0.0}
    panel = dr = None
    if keep.size >= 2:
        try:
            # ds itself, not a copy: einsum would sum M @ Y in another order
            panel = ds if keep.size == d.n else subset_units(ds, keep)
            dr = build_regressors(panel)
        except (RankDeficient, ValueError):
            pass  # retained units still fail at solver tolerance; margins stay 0
        if dr is not None:
            S1 = np.einsum("nip,niq->pq", dr.MPsi, dr.MPsi) / keep.size
            S2 = np.einsum("nip,niq->pq", dr.M1PsiTilde, dr.M1PsiTilde) / keep.size
            S3 = panel.H.T @ panel.H / keep.size
            pooled = {
                "psi_m_psi": _min_eig_margin(S1),
                "psi_tilde_m1_psi_tilde": _min_eig_margin(S2),
                "hth": _min_eig_margin(S3),
            }

    checks = {
        "unit_x_variation": len(fail_x) == 0,
        "unit_x_minus1_variation": len(fail_x1) == 0,
        "pooled_psi_rank": pooled["psi_m_psi"] > RANK_TOL,
        "pooled_psi_tilde_rank": pooled["psi_tilde_m1_psi_tilde"] > RANK_TOL,
        "h_rank": pooled["hth"] > RANK_TOL if d.K_h > 0 else True,
    }
    return ValidationReport(
        h_min=h_min,
        unit_gram_det_x=det_x,
        unit_gram_det_x_minus1=det_x1,
        unit_margin_x=margin_x,
        unit_margin_x_minus1=margin_x1,
        failing_units_x=fail_x,
        failing_units_x_minus1=fail_x1,
        pooled_margins=pooled,
        checks=checks,
        panel=panel,
        regressors=dr,
    )


def drop_failing_units(ds, report):
    """Remove the units flagged by `report = validate(ds)`; returns
    (report.panel, dropped labels), the panel validate built regressors on."""
    bad = set(report.failing_units_x) | set(report.failing_units_x_minus1)
    keep = [i for i, u in enumerate(ds.unit_labels) if u not in bad]
    dropped = tuple(u for u in ds.unit_labels if u in bad)
    if len(keep) < 2:
        raise PanelDataError(
            f"fewer than 2 units remain after dropping {len(dropped)} "
            "rank-deficient units"
        )
    # no panel only if validate caught the error forming it: raise it here
    return report.panel or subset_units(ds, keep), dropped
