"""Exception types shared across the package, and the input rules.

Everything user-facing derives from CoaxtailError so the CLI can map
failures onto exit codes without chasing individual modules.

Every input boundary (a constructor, a file reader, a flag parser)
checks what it is given with the rules below, each written once here:
finite, positive, non-negative, an instance of a given class, a whole
count, text that is a finite number, an array of numbers in a given
shape, a 3-vector (returned as a tuple of three Python floats), a 3x3
matrix, a tick rate and a numeric CSV file. NaN and the infinities fail
every numeric rule but the shape rule, float_array; a bool, text and any
other non-number fail them all. A refusal is a ConfigError whose message
names the field, key or file line at fault.
"""

import csv
import itertools
import math
import numbers

import numpy as np


class CoaxtailError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CoaxtailError, ValueError):
    """A configuration value or file is invalid or inconsistent."""


class LinearRangeError(CoaxtailError, ValueError):
    """Angle of attack outside the linear lift-curve validity range."""


class TableRangeError(CoaxtailError, ValueError):
    """Requested operating point falls outside tabulated data; no extrapolation."""


class InfeasibleError(CoaxtailError, ValueError):
    """No solution exists within the admissible range (trim, rpm solve, ...)."""


class NumericalDomainError(CoaxtailError, ArithmeticError):
    """Evaluation requested at or beyond a model singularity."""


class SimulationFault(CoaxtailError, RuntimeError):
    """The simulation produced non-finite state or violated a hard limit."""


# ---------------------------------------------------------------------------
# Input rules. The check_* rules take each value as a keyword argument
# named after its field: check_positive(mass=self.mass). vars(self) would
# build the instance's __dict__, which in CPython 3.11 doubles the cost of
# every later attribute read on the object (the closed loop's params).

def _check(values, ok, rule):
    for name, value in values.items():
        # a bool is no number here, though Python counts True as 1
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not ok(value)):
            raise ConfigError(f"{name} must be {rule}, got {value!r}")


def check_finite(**values):
    _check(values, math.isfinite, "finite")


def check_positive(**values):
    _check(values, lambda v: 0.0 < v < math.inf, "positive and finite")


def check_non_negative(**values):
    _check(values, lambda v: 0.0 <= v < math.inf, "non-negative and finite")


def check_instance(kind, **values):
    """ConfigError naming the field unless each value is an instance of
    kind, a class or a tuple of classes (type(None) admits None)."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for name, value in values.items():
        if not isinstance(value, kinds):
            want = " or ".join("None" if k is type(None) else k.__name__
                               for k in kinds)
            raise ConfigError(f"{name} must be {want}, got {value!r}")


def whole_count(name, value, least):
    """int of a whole number (numpy integers included) of at least
    `least`; 2.5, NaN, inf, a bool or a non-number is refused, not
    rounded."""
    if isinstance(value, (bool, np.bool_)):
        ok = False
    elif isinstance(value, (int, np.integer)):
        # whole at any size, where float() of an int past 1e308 overflows
        ok = value >= least
    else:
        try:
            ok = float(value).is_integer() and value >= least
        except (TypeError, ValueError):
            ok = False
    if not ok:
        raise ConfigError(f"{name} must be a whole number, at least {least}, "
                          f"got {value!r}")
    return int(value)


def finite_number(text, where):
    """float(text); ConfigError naming `where` unless the text is a finite
    number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {text!r}")
    return value


def float_array(value, shape):
    """value as a new float array of `shape`, or None unless it is numbers
    in that shape: text and booleans are not, even where numpy reads them
    as numbers ("1", True), nor are a dict and ragged nesting; NaN and inf
    pass, for the caller's own rule."""
    try:
        # each entry as given: numpy would cast [True, 2] to ints first
        items = np.array(value, dtype=object)
        if items.shape != shape or any(
                isinstance(x, (str, bytes, bool, np.bool_))
                for x in items.flat):
            return None
        return items.astype(float)
    except (TypeError, ValueError):
        return None


def finite_vector3(value, name):
    """value as a tuple of three Python floats; ConfigError unless it is
    3 finite numbers."""
    v = float_array(value, (3,))
    if v is None or not np.isfinite(v).all():
        raise ConfigError(f"{name} must be 3 finite numbers")
    return tuple(v.tolist())


def finite_matrix3(value, name):
    """value as a read-only float array; ConfigError unless it is a 3x3
    matrix of finite numbers."""
    m = float_array(value, (3, 3))
    if m is None or not np.isfinite(m).all():
        raise ConfigError(f"{name} must be a 3x3 matrix of finite numbers")
    m.flags.writeable = False
    return m


def tick_rate(dt):
    """1/dt as an int; ConfigError unless dt > 0 and 1/dt is a finite
    whole rate in Hz to 1e-6 (a subnormal dt's overflows to inf)."""
    rate = 1.0 / dt if dt > 0.0 else math.nan
    if not (math.isfinite(rate) and round(rate) >= 1
            and abs(rate - round(rate)) <= 1e-6):
        raise ConfigError(f"dt={dt!r} must be positive, with 1/dt an "
                          f"integer rate")
    return int(round(rate))


def read_number_rows(path, header):
    """The rows after the header of a CSV file of numbers, blank ones
    skipped, as an n x len(header) float array.

    The header must hold the names in `header` (None for any name), and
    each row exactly len(header) finite numbers. A refusal names the file
    and, for a row, its line; an unreadable file is a ConfigError too.
    """
    width = len(header)

    def bad_row(reader, row):
        return ConfigError(f"{path}: line {reader.line_num}: {row!r} is not "
                           f"{width} finite numbers")

    numbers = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            names = [cell.strip() for cell in next(reader, ())]
            if len(names) != width or any(
                    want not in (None, got)
                    for want, got in zip(header, names)):
                raise ConfigError(f"{path}: expected header " + ",".join(
                    want or "<value>" for want in header))
            for row in reader:
                try:
                    if len(row) != width:
                        raise ValueError
                    # a blank row fails at its first cell, adding nothing
                    numbers += map(float, row)
                except ValueError:
                    if "".join(row).strip():
                        raise bad_row(reader, row) from None
            rows = np.array(numbers).reshape(-1, width)
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():
                # read again for the line of the first row that is not
                # finite: a line number kept per row slows every read
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                data = (row for row in reader if "".join(row).strip())
                row = next(itertools.islice(data, int(np.argmin(finite)),
                                            None))
                raise bad_row(reader, row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        # no file, bytes that are not text, or a field past csv's limit
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return rows
