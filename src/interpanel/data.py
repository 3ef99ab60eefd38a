"""Panel data model: loading, validation, and derived regressor blocks.

The observed sample is a balanced panel (Y, X, G, Z, H). X carries the
unit-specific random coefficients, G and H are time-varying and
time-invariant interaction variables, Z are additive controls. This
module builds the per-unit interaction blocks and projects each unit's
own X_i (CITE) or X_{i,-1} (ITE) out of them and out of Y_i, once. Each
command factors X_i and X_{i,-1} once (`factor_units`), and validation,
the projections and the slopes all read those QR factors. Each estimator
and its standard errors read their own part of the blocks, and a part is
built only as far as its fit reads it. Each part holds its stacked
pooled fit (`pooled`), solved once, on the first read: `validate`'s
pooled check reads it, and the estimator then reads the same fit.
"""

from __future__ import annotations

import csv
import math
import re
import sys
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .linalg import (RankDeficient, gram_condition, residual_makers, solve_ols,
                     unit_rank_deficient)

# Numeric text format used by the CSV writer; round-trips float64 exactly.
FLOAT_FORMAT = "%.17g"

DEFAULT_H_MIN = 1e-8

# Most float64 values one numpy array can hold (its bytes fit an index).
_MAX_CELLS = sys.maxsize // 8

# Bytes per block of the scan for the ASCII separators 0x1C-0x1F.
_SCAN_BYTES = 2 ** 20
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Bytes of (T, T) residual makers that _project forms at a time.
_PROJECT_BYTES = 2 ** 20


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


class ExtraField(PanelDataError):
    def __init__(self, row, found, expected):
        self.row = row
        self.found = found
        self.expected = expected
        super().__init__(f"row {row} has {found} fields, more than the "
                         f"header's {expected}")


class DuplicateColumn(PanelDataError):
    def __init__(self, column, count):
        self.column = column
        self.count = count
        super().__init__(f"column {column!r} appears {count} times in the header")


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
        cells = self.n * self.T * (1 + self.K_x + self.K_g + self.K_z + self.K_h)
        if cells > _MAX_CELLS:
            raise ValueError(f"n * T * (1 + K_x + K_g + K_z + K_h) = {cells} "
                             f"values, more than the {_MAX_CELLS} that one "
                             "float64 array can hold")

    @property
    def n_psi(self):
        """Columns of the pooled interaction/control block."""
        return self.K_x * self.K_g + self.K_z


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

    The key is numeric only when every label is a finite number, otherwise
    text, so a column mixing numbers and text never compares the two, and
    a NaN key ("nan") never makes the order follow the set's hash order.
    Equal numeric keys (1 and "1.0") fall back to the text.
    """
    distinct = set(labels)
    try:
        key = {v: float(v) for v in distinct}
        numeric = all(map(math.isfinite, key.values()))
    except (TypeError, ValueError, OverflowError):
        numeric = False
    if not numeric:
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
            if c == roles["y"]:  # every slope on it would be 1
                raise PanelDataError(f"column {c!r} is both y and one of "
                                     f"the {block} columns")
    if not roles["x"]:
        raise MissingColumn("x1")
    for c in [roles["unit"], roles["time"], roles["y"], *roles["x"], *roles["g"],
              *roles["z"], *roles["h"]]:
        if header.count(c) > 1:
            raise DuplicateColumn(c, header.count(c))
    return roles


def load_csv(path, schema=None):
    """Load a balanced panel from a long-format CSV.

    Required columns: unit, time, y, and x1..xK (or the names given in
    `schema`, a mapping with keys among unit/time/y/x/g/z/h where the
    block entries are lists of column names). Optional blocks g*, z*, h*.
    A column with a role must appear once in the header, and the y column
    may not also be an x, g, z or h column. Rows may be in
    any order; they are sorted by (unit, time). Blank lines are skipped.
    Values are read as Python's `float()` reads text and must be finite.
    h columns must be constant within each unit. A leading UTF-8 BOM is
    dropped. A record that `csv` cannot read (a field longer than
    `csv.field_size_limit()`) raises PanelDataError naming its file line.

    After the header, the records are read by numpy's C parser in one
    `np.loadtxt` pass (`_loadtxt_columns`). Where that pass fails, finds
    no record or a value that is not finite, or could read a text other
    than `float()` and `csv.reader` do, the file is read again from the
    top by `csv.reader`, one record at a time (`_csv_columns`), which
    raises the error of the first bad record with its file line as
    `row`. A file that cannot be read twice (a pipe) is read that way
    alone. Either reader gives the value block and the unit and time
    texts in file order; the distinct labels are then sorted once and
    the values are scattered into the (unit, time) grid.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PanelDataError(f"empty CSV: {path}")
            roles = _resolve_schema(header, schema)
            value_cols = ([roles["y"]] + roles["x"] + roles["g"] + roles["z"]
                          + roles["h"])
            label_at = [header.index(roles["unit"]), header.index(roles["time"])]
            value_at = [header.index(c) for c in value_cols]
            read = None
            if fh.seekable():
                read = _loadtxt_columns(path, fh, len(header), label_at, value_at)
                if read is None:
                    fh.seek(0)
                    reader = csv.reader(fh)
                    next(reader)
            if read is None:
                read = _csv_columns(reader, header, value_at, label_at)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise PanelDataError(f"line {reader.line_num}: {exc}") from None
    values, unit_texts, time_texts = read
    if not len(values):
        raise PanelDataError(f"no data rows in {path}")

    unit_labels, ui = _label_positions(unit_texts)
    time_labels, ti = _label_positions(time_texts)
    n, T = len(unit_labels), len(time_labels)
    grid = np.full((n, T, len(value_cols)), np.nan)
    grid[ui, ti] = values
    counts = np.bincount(ui, minlength=n)
    unbalanced = (counts != T) | np.isnan(grid[:, :, 0]).any(axis=1)
    if unbalanced.any():
        i = int(np.argmax(unbalanced))
        raise UnbalancedPanel(unit=unit_labels[i], expected=T, found=int(counts[i]))

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


def _loadtxt_columns(path, fh, width, label_at, value_at):
    """(value block, unit texts, time texts) of the records left in `fh`,
    read by one `np.loadtxt` pass, or None where `_csv_columns` must read
    the file instead.

    The dtype has one field per header column, so loadtxt itself rejects
    a record of another width: `f8` for the value columns, `object` (the
    whole text, never a truncating fixed width) for the rest. None when
    the pass raises or reads no record, when a value is not finite
    (`_csv_columns` names it), when the unit or time column is also a
    value column, or when the file holds a byte 0x1C-0x1F: numpy strips
    those around a number as whitespace, where `float()` rejects them.
    Any other text, loadtxt reads as `float()` and `csv.reader` do, or
    rejects.
    """
    if set(label_at) & set(value_at) or _has_separator(path):
        return None
    fields = [f"c{i}" for i in range(width)]
    dtype = np.dtype([(name, "f8" if i in value_at else object)
                      for i, name in enumerate(fields)])
    try:
        with warnings.catch_warnings():
            # a file with no data rows; _csv_columns reports it
            warnings.simplefilter("ignore", UserWarning)
            records = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                 quotechar='"', ndmin=1)
    except Exception:  # _csv_columns raises the file's own error
        return None
    if not len(records):
        return None
    values = np.column_stack([records[fields[i]] for i in value_at])
    if not np.isfinite(values).all():
        return None
    return (values, *(records[fields[i]].tolist() for i in label_at))


def _has_separator(path):
    """Whether the file holds one of the bytes 0x1C-0x1F (in UTF-8 they
    encode only the ASCII separator characters themselves)."""
    with open(path, "rb") as fh:
        while block := fh.read(_SCAN_BYTES):
            if any(b in block for b in _SEPARATORS):
                return True
    return False


def _csv_columns(reader, header, value_at, label_at):
    """(value block, unit texts, time texts) of a csv.reader's records,
    read one record at a time; empty records are skipped.

    The first bad record raises its error, with the file line where it
    ends as `row`: MissingField or ExtraField for a record of another
    width than the header, else NonFiniteValue for the first value column
    whose text `float()` rejects or reads as not finite.
    """
    width = len(header)
    values, unit_texts, time_texts = array("d"), [], []
    text = {}  # one str per distinct label text, not one per record
    for rec in reader:
        if not rec:
            continue
        if len(rec) < width:
            raise MissingField(reader.line_num, header[len(rec)])
        if len(rec) > width:
            raise ExtraField(reader.line_num, len(rec), width)
        for i in value_at:
            try:
                v = float(rec[i])
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                raise NonFiniteValue(row=reader.line_num, column=header[i])
            values.append(v)
        unit, time = rec[label_at[0]], rec[label_at[1]]
        unit_texts.append(text.setdefault(unit, unit))
        time_texts.append(text.setdefault(time, time))
    return (np.frombuffer(values).reshape(-1, len(value_at)), unit_texts,
            time_texts)


def _label_positions(texts):
    """Sorted distinct labels of a text column, and each text's position
    among them. Each distinct text is parsed once; texts that parse to one
    label ("1", "01") share its position."""
    parsed = {s: _parse_label(s) for s in set(texts)}
    labels = _sorted_labels(parsed.values())
    pos = {label: i for i, label in enumerate(labels)}
    code = {s: pos[label] for s, label in parsed.items()}
    return labels, np.fromiter(map(code.__getitem__, texts), dtype=np.intp,
                               count=len(texts))


def _csv_fields(labels):
    """Each label as csv.writer writes it inside a row of several fields
    (quoted only where a comma, quote or line break needs it)."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows(
        (label, "") for label in labels)
    return [line[:-len(',\r\n')] for line in lines]


def write_csv(ds, path):
    """Write a panel to the long CSV format with 17 significant digits.

    The bytes are csv.writer's, but each row is one `%` on a row format
    over a unit's (T, 1+K) block of y, x, g and z; labels are quoted once.
    H is constant within a unit, so each unit's h values are formatted
    once, into the tail (with the line end) that all its rows share.
    """
    cols = ds.columns
    header = (["unit", "time", "y"] + list(cols["x"]) + list(cols["g"])
              + list(cols["z"]) + list(cols["h"]))
    block = np.concatenate([ds.Y[:, :, None], ds.X, ds.G, ds.Z], axis=2)
    row = "%s,%s," + ",".join([FLOAT_FORMAT] * block.shape[2]) + "%s"
    tail = ("," + FLOAT_FORMAT) * ds.H.shape[1] + "\r\n"
    times = _csv_fields(ds.time_labels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for u, h, values in zip(_csv_fields(ds.unit_labels), ds.H.tolist(),
                                block):
            end = tail % tuple(h)
            fh.writelines([row % (u, t, *v, end)
                           for t, v in zip(times, values.tolist())])


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


def _stacked_fit(design, response, stage):
    """`solve_ols` on per-unit blocks stacked over units: the design
    (n, T, k) as nT rows of k columns, the response (n, T) as nT values.
    Its RankDeficient names the `stage`."""
    return solve_ols(design.reshape(response.size, design.shape[2]),
                     response.reshape(-1), stage)


@dataclass(frozen=True)
class CiteBlocks:
    """Every per-unit array the two-step (CITE) fit and its standard
    errors read: the panel's own Y, X and H (not copies), Psi and its
    projection.

    Psi is (n, T, K_x*K_g + K_z): row t holds (X_t kron G_t, Z_t). MPsi
    and MY are Psi_i and Y_i with X_i projected out (M_i Psi_i, M_i Y_i);
    the (T, T) makers M_i are formed one unit chunk at a time and never
    kept, so memory is O(chunk * T^2) plus these O(nTK) arrays. When Psi
    has no columns no M_i is formed: MPsi is the empty Psi and MY is
    Y_i - Q_i Q_i'Y_i. q_x/r_x are the QR factors of X_i. `pooled` is the
    pooled stage's fit.
    """

    Y: np.ndarray
    X: np.ndarray
    H: np.ndarray
    Psi: np.ndarray
    MPsi: np.ndarray
    MY: np.ndarray
    q_x: np.ndarray
    r_x: np.ndarray

    @cached_property
    def pooled(self):
        """The `LeastSquaresFit` of M_i Y_i on M_i Psi_i across units
        (`_stacked_fit`), solved on the first read and kept; a design that
        fails raises its RankDeficient again on every read."""
        return _stacked_fit(self.MPsi, self.MY, "CITE pooled stage")


@dataclass(frozen=True)
class IteBlocks:
    """The per-unit arrays the one-step (ITE) fit reads: PsiTilde_i and
    Y_i with X_{i,-1} projected out, where PsiTilde is
    (n, T, K_h + K_x*K_g + K_z) and row t holds (X_t1 * H, Psi_t). At
    K_x = 1, M_{i,-1} = I and the two are PsiTilde and Y themselves.
    `pooled` is the one-step fit."""

    M1PsiTilde: np.ndarray
    M1Y: np.ndarray

    @cached_property
    def pooled(self):
        """The `LeastSquaresFit` of M_{i,-1} Y_i on M_{i,-1} PsiTilde_i
        across units (`_stacked_fit`), kept as `CiteBlocks.pooled` is."""
        return _stacked_fit(self.M1PsiTilde, self.M1Y, "ITE one-step fit")


@dataclass(frozen=True)
class DerivedRegressors:
    """The blocks of both estimators, built once from one panel: `cite`
    for `fit_cite` and its standard errors, `ite` for `ite` and `ite_se`.
    A fit takes only its own part; a bootstrap draw reads per-unit
    summaries of `cite` (`inference.unit_summaries`).
    """

    cite: CiteBlocks
    ite: IteBlocks


def interaction_block(X, G):
    """Row-wise Kronecker block: column (k, g) holds X[..., k] * G[..., g]."""
    n, T, K_x = X.shape
    K_g = G.shape[2]
    return (X[:, :, :, None] * G[:, :, None, :]).reshape(n, T, K_x * K_g)


def psi_block(ds):
    """Psi, (n, T, K_x*K_g + K_z): row t holds (X_t kron G_t, Z_t)."""
    return np.concatenate([interaction_block(ds.X, ds.G), ds.Z], axis=2)


def factor_units(A):
    """(Q, R), the reduced QR of each unit's design in a stack A (n, T, k):
    one batched `np.linalg.qr`, none at k = 0 (Q is A, R is (n, 0, 0)).
    Each command factors X and X_{i,-1} = X[:, :, 1:] once this way."""
    n, _, k = A.shape
    return np.linalg.qr(A) if k else (A, np.empty((n, 0, 0)))


def build_regressors(ds):
    """Both estimators' blocks, from one QR of X and one of X_{i,-1}
    (`factor_units`). Raises RankDeficient, with the first failing unit's
    label, when some X_i'X_i or else some X_{i,-1}'X_{i,-1} is
    numerically singular under the rank rule (`unit_rank_deficient`)."""
    return _blocks(ds, _checked_factors(ds, ds.X),
                   _checked_factors(ds, ds.X[:, :, 1:]))


def build_ite_blocks(ds):
    """The ITE blocks alone, for a caller that fits only ITE: X_i itself
    is never factored, X_{i,-1} is (with the rank rule) when it has
    columns."""
    return _ite_blocks(ds, psi_block(ds),
                       _checked_factors(ds, ds.X[:, :, 1:])[0])


def _checked_factors(ds, A):
    """`factor_units(A)`, or the RankDeficient of its first unit that the
    rank rule fails, carrying that unit's label."""
    Q, R = factor_units(A)
    bad, sv = unit_rank_deficient(R)
    if bad.any():
        i = int(np.argmax(bad))
        raise RankDeficient("X_i'X_i is numerically singular",
                            condition=gram_condition(sv[i]),
                            unit=ds.unit_labels[i])
    return Q, R


def _blocks(ds, x_factors, x1_factors):
    """Both parts of the blocks from the panel and the QR factors of its
    X_i and X_{i,-1}. When Psi has columns X_i is projected out of Psi
    and Y by `_project`; otherwise no M_i is formed, and
    M_i Y_i = Y_i - Q_i Q_i'Y_i."""
    q_x, r_x = x_factors
    Psi = psi_block(ds)
    assert Psi.shape[2] == ds.dims.n_psi
    if Psi.shape[2]:
        MPsi, MY = _project(q_x, Psi, ds.Y)
    else:
        MPsi, MY = Psi, ds.Y - np.einsum(
            "ntk,nk->nt", q_x, np.einsum("ntk,nt->nk", q_x, ds.Y))
    cite = CiteBlocks(Y=ds.Y, X=ds.X, H=ds.H, Psi=Psi, MPsi=MPsi, MY=MY,
                      q_x=q_x, r_x=r_x)
    return DerivedRegressors(cite=cite, ite=_ite_blocks(ds, Psi, x1_factors[0]))


def _ite_blocks(ds, Psi, q_1):
    """ITE blocks from the panel, its `psi_block` and the Q factors of
    X_{i,-1}, projected out of PsiTilde and Y (`_project`)."""
    PsiTilde = np.concatenate([ds.X[:, :, 0:1] * ds.H[:, None, :], Psi], axis=2)
    if not q_1.shape[2]:  # K_x = 1: M_{i,-1} = I, nothing to do
        return IteBlocks(M1PsiTilde=PsiTilde, M1Y=ds.Y)
    return IteBlocks(*_project(q_1, PsiTilde, ds.Y))


def _project(Q, block, Y):
    """(M_i block_i, M_i Y_i) for every unit, where M_i = I - Q_i Q_i' is
    the residual maker of X_i = Q_i R_i (`residual_makers`).

    The (T, T) makers are formed for a chunk of about `_PROJECT_BYTES` of
    units at a time and dropped after their chunk, so memory is one chunk
    of makers plus the outputs. Each output unit is the same einsum sum
    as on the whole panel, np.einsum("nij,njp->nip", M, block), bit for
    bit. With p >= 2 columns that einsum runs its inner loop along p, a
    few columns long; since M_i is exactly symmetric, "nji,njp->npi"
    adds the same products M_ij B_jp in the same j order with its inner
    loop along i, T long, and its (p, T) result is written back
    transposed (pinned by `tests/test_data.py`). At p = 1 the
    reference's inner loop is the j sum itself, in SIMD partial sums no
    other order reproduces, so it stays, as for M_i Y_i.
    """
    n, T, p = block.shape
    MB, MY = np.empty(block.shape), np.empty(Y.shape)
    step = max(1, _PROJECT_BYTES // (8 * T * T))
    for s in range(0, n, step):
        e = min(s + step, n)
        M = residual_makers(Q[s:e])
        if p > 1:
            MB[s:e] = np.einsum("nji,njp->npi", M, block[s:e]).transpose(0, 2, 1)
        else:
            np.einsum("nij,njp->nip", M, block[s:e], out=MB[s:e])
        np.einsum("nij,nj->ni", M, Y[s:e], out=MY[s:e])
    return MB, MY


@dataclass(frozen=True)
class ValidationReport:
    """Sample-analogue checks of the estimators' rank conditions.

    Unit i's Gram determinants det(X_i'X_i) and det(X_{i,-1}'X_{i,-1})
    are prod(diag R_i)^2 from the QR that `validate` factors each design
    with, so never negative (1.0 for the empty X_{i,-1} at K_x = 1), and
    inf past the float range. Normalized by (T * mean(X_i^2))^k, they give
    the margins, formed as prod(|r_jj| / sqrt(T * mean(X_i^2)))^2, which
    never overflow: the h_min threshold is scale free per unit. A pooled
    check is the solver's verdict on its fit's design over the passing
    units (`validate`); its margin, (sigma_min / sigma_max)^2 of that
    design, is 1 / gram_condition. The passing units are at the input's
    positions `kept`; they are `panel` (the input itself when none fails),
    with blocks `regressors` (both None, and the pooled checks fail at
    margin 0.0, only when fewer than 2 units pass). `to_dict` omits these
    three.
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
    kept: np.ndarray = field(repr=False, compare=False)
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


def _pooled_check(fit):
    """(margin, passed): 1 / gram_condition of the fit `fit()`, and
    whether it returns rather than raise RankDeficient, whose condition
    (inf for a design with fewer rows than columns) gives the margin."""
    try:
        return 1.0 / fit().gram_condition, True
    except RankDeficient as exc:
        return 1.0 / exc.condition, False


def validate(ds, h_min=DEFAULT_H_MIN):
    """Check per-unit X variation and the pooled rank conditions.

    Reporting only; nothing is raised. Each unit's X_i and X_{i,-1} are
    factored once (`factor_units`), and everything reads those factors:
    a unit fails unless both R factors pass the solver's rank rule
    (`unit_rank_deficient`) and the h_min trim on their normalized Gram
    determinants, prod(diag R_i)^2. Failing units are listed and left out
    of the pooled stage (estimation conditions on the passing units), whose
    regressors are built here from the kept rows of the same factors.
    The checks on Psi and PsiTilde are the blocks' own `pooled` fits,
    which the estimators then read rather than solve again; the check on
    H is `solve_ols` on H.
    """
    d = ds.dims
    X = ds.X
    factors = [factor_units(X), factor_units(X[:, :, 1:])]
    diags = [np.abs(np.diagonal(R, axis1=1, axis2=2)) for _, R in factors]
    with np.errstate(over="ignore"):  # a large X_i's determinant is inf
        det_x, det_x1 = (np.prod(diag, axis=1) ** 2 for diag in diags)
    scale2 = np.mean(X * X, axis=(1, 2))
    scale2[scale2 == 0.0] = 1.0
    # each |r_jj| / sqrt(T mean(X_i^2)) is at most sqrt(K_x): no overflow
    scale = np.sqrt(d.T * scale2)[:, None]
    margin_x, margin_x1 = (np.prod(diag / scale, axis=1) ** 2 for diag in diags)

    ok_x, ok_x1 = ((margin > h_min) & ~unit_rank_deficient(R)[0]
                   for margin, (_, R) in zip((margin_x, margin_x1), factors))
    fail_x = tuple(ds.unit_labels[i] for i in np.flatnonzero(~ok_x))
    fail_x1 = tuple(ds.unit_labels[i] for i in np.flatnonzero(~ok_x1))

    keep = np.flatnonzero(ok_x & ok_x1)
    pooled = dict.fromkeys(("psi_m_psi", "psi_tilde_m1_psi_tilde", "hth"),
                           (0.0, False))
    panel = dr = None
    if keep.size >= 2:
        # ds itself, not a copy: einsum would sum M @ Y in another order
        panel = ds if keep.size == d.n else subset_units(ds, keep)
        if panel is not ds:
            factors = [(Q[keep], R[keep]) for Q, R in factors]
        dr = _blocks(panel, *factors)
        c, t = dr.cite, dr.ite
        pooled = {
            "psi_m_psi": _pooled_check(lambda: c.pooled),
            "psi_tilde_m1_psi_tilde": _pooled_check(lambda: t.pooled),
            "hth": _pooled_check(
                lambda: solve_ols(panel.H, np.zeros(keep.size))),
        }

    checks = {
        "unit_x_variation": len(fail_x) == 0,
        "unit_x_minus1_variation": len(fail_x1) == 0,
        "pooled_psi_rank": pooled["psi_m_psi"][1],
        "pooled_psi_tilde_rank": pooled["psi_tilde_m1_psi_tilde"][1],
        "h_rank": pooled["hth"][1],
    }
    return ValidationReport(
        h_min=h_min,
        unit_gram_det_x=det_x,
        unit_gram_det_x_minus1=det_x1,
        unit_margin_x=margin_x,
        unit_margin_x_minus1=margin_x1,
        failing_units_x=fail_x,
        failing_units_x_minus1=fail_x1,
        pooled_margins={name: m for name, (m, _) in pooled.items()},
        checks=checks,
        kept=keep,
        panel=panel,
        regressors=dr,
    )


def drop_failing_units(ds, report):
    """Remove the units flagged by `report = validate(ds)`; returns
    (report.panel, dropped labels), the panel validate built regressors
    on, or PanelDataError when fewer than 2 units pass. Units are dropped
    by position (`report.kept`), so units that share a label are kept or
    dropped each by its own verdict."""
    kept = set(report.kept.tolist())
    dropped = tuple(u for i, u in enumerate(ds.unit_labels) if i not in kept)
    if report.kept.size < 2:
        raise PanelDataError(
            f"fewer than 2 units remain after dropping {len(dropped)} "
            "failing units"
        )
    return report.panel, dropped
