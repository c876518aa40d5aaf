"""Config-driven command-line driver for recursions, bounds, runs, and rates.

Commands: simulate-recursion, bound, run, verify, fit, heatmap. Every
command takes only the flags it reads, after its name (verify's, after its
suite's): file-writing commands need --out and all but verify a strict JSON
--config (unknown keys rejected).
All randomness is keyed by explicit seeds; nothing reads OS entropy. The
verify suites are the library's steprates.verify; this module parses,
dispatches and writes.

Every config field goes through one typed parser. A section that feeds a
library call (params, constants, schedule, problem, noise) takes the call's
parameters as keys, each parsed by its annotation's parser and optional
where it has a default. So do bound and run, whose family or algorithm
picks the call from one table: their keys are that call's parameters, but
for those the command fills (method constants, schedule, K and run's x0).
A number must be a JSON number (not a bool or a string) that fits a
float, and a NaN, Infinity or overflowing literal such as 1e400 anywhere in
a config is rejected; an integer field (horizons, seeds, dim, N, window)
takes JSON integers only.
A horizon that is materialized, a k_grid entry or the K of run, lies in
[1, MAX_HORIZON = 2^24]; the K of bound is unbounded, as every bound is
closed-form.

Exit codes: 0 success, 1 verification-suite failure, 2 configuration error
(an --out that cannot be made or written included, checked before any
work, as is every file the command writes there), 3 numeric failure (a
trajectory left its admissible region or is not finite, a run's gap is not
finite, or fit got a value that is not finite), 4 precondition failure of a
requested bound, 5 problem-verification failure before a run. Files are
written after the work, and a failure while writing removes them and exits 2.

CSV output uses UTF-8, LF line endings, a mandatory header row, and floats
printed byte for byte as '%.17g' prints them, so parsing returns the exact
values. Infinite values serialize as the strings "inf"/"-inf" in CSV and
JSON. Tables are written in blocks from prebuilt row templates, byte for
byte as csv.writer writes them with the same float formatting.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import sys
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Mapping, Sequence, get_args

import numpy as np

from . import __version__
from .optimizers import (
    NoiseModel,
    gd_run,
    make_power_family,
    make_quadratic,
    rr_run,
    sgd_run,
)
from .plbounds import (
    NumericFailure,
    PLParams,
    bound_const,
    bound_cos,
    bound_exp,
    bound_poly,
    rr_constants,
    sgd_constants,
    simulate_pl_finals,
)
from .rates import fit_loglog, heatmap_grid
from .recursions import PreconditionError
from .schedules import StepSchedule
from .verify import (
    DEFAULT_R_GRID,
    assumptions_suite,
    bounds_suite,
    chung_suite,
    tech_inequality_suite,
    verify_pl,
)

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAILURE = 3
EXIT_PRECONDITION_FAILURE = 4
EXIT_PROBLEM_VERIFICATION = 5

# the largest horizon a command materializes step by step
MAX_HORIZON = 2**24
# rows per template and write when a CSV table is written
_CHUNK = 4096


class ConfigError(ValueError):
    """Raised for malformed configs or inputs; maps to exit code 2."""


def _fmt(value) -> str:
    return "%.17g" % value if isinstance(value, float) else str(value)


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    return obj


def _csv_field(text: str) -> str:
    """text as csv.writer(lineterminator="\n") writes it among other fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


# --- %.17g of many floats at once --------------------------------------------
#
# A float x in (1e-11, 1e16) is M * 2^E with M < 2^53, and its 17 significant
# digits are N = round(x * 10^s), s = 16 - q, where q = floor(log10 x) is
# the one exponent that puts N in [10^16, 10^17). q lies in [-11, 15] (the
# float 1e-11 is below 10^-11), so 10^s = 5^s * 2^s with 5^s < 2^63, and
# x * 10^s = (M * 5^s) * 2^(E + s) is an exact 128-bit product and a shift,
# rounded half to even as '%.17g' rounds the exact binary value. The digits
# are laid out by '%g''s rules in 24 bytes held as three words. A remainder
# a % c is a - (a // c) * c: numpy's uint64 % by a scalar costs over twice that.

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_Q_LO, _Q_HI = -11, 15
_POW5 = np.array([5**s for s in range(17 - _Q_LO)], dtype=np.uint64)
_N_LO, _N_HI = _U64(10**16), _U64(10**17)
# floats per numpy pass of _format17: a few MB of temporaries
_BLOCK = 2**15


def _cells(q: int, ndig: int) -> list:
    """'%.17g' of a value with exponent q whose digit string d0..d16 has ndig
    significant digits: each cell a digit's index or a character."""
    if 0 <= q:
        cells = list(range(max(q + 1, ndig)))
        return cells[: q + 1] + ["."] + cells[q + 1 :] if ndig > q + 1 else cells
    if -4 <= q:
        return list("0." + "0" * (-q - 1)) + list(range(ndig))
    mantissa = [0, ".", *range(1, ndig)] if ndig > 1 else [0]
    return mantissa + list("e%+03d" % q)


@cache
def _layouts() -> np.ndarray:
    """Column (q - _Q_LO) * 17 + ndig - 1 holds the words of masks A and B,
    the words of bytes C and a shift t, such that the 24 bytes
    (D & A) | ((D << t) & B) | C, with D the digit string as bytes, are the
    cells of _cells(q, ndig) followed by NULs."""
    keys = [(q, ndig) for q in range(_Q_LO, _Q_HI + 1) for ndig in range(1, 18)]
    table = bytearray(80 * len(keys))  # per key: A, B, C and t, little-endian
    for at, (q, ndig) in zip(range(0, len(table), 80), keys):
        table[at + 72] = 8  # t for keys that move no digit
        for j, cell in enumerate(_cells(q, ndig)):
            if isinstance(cell, str):
                table[at + 48 + j] = ord(cell)
            elif cell == j:
                table[at + j] = 0xFF
            else:  # every moved digit moves by the same j - cell
                table[at + 24 + j], table[at + 72] = 0xFF, 8 * (j - cell)
    return np.frombuffer(table, dtype="<u8").reshape(len(keys), 10).T.copy()


def _scaled(M, E, q):
    """floor and half-even rounding of M * 2^E * 10^(16 - q), exactly."""
    s = 16 - q
    exponent = E + s
    a = M << np.maximum(exponent, 0).astype(np.uint64)
    r = np.maximum(-exponent, 0).astype(np.uint64)
    b = _POW5[s]
    # the 128-bit product a * b from 32-bit halves; a < 2^55, b < 2^63
    a0, a1, b0, b1 = a & _LOW32, a >> _U64(32), b & _LOW32, b >> _U64(32)
    low, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (low >> _U64(32)) + (m1 & _LOW32) + (m2 & _LOW32)
    high = a1 * b1 + (m1 >> _U64(32)) + (m2 >> _U64(32)) + (mid >> _U64(32))
    low = (low & _LOW32) | (mid << _U64(32))
    # shifted right by r <= 62; at r = 0 the product is whole and not rounded
    floor = (low >> r) | ((high << (_U64(63) - r)) << _U64(1))
    rest = low & ((_U64(1) << r) - _U64(1))
    half = (_U64(1) << r) >> _U64(1)
    return floor, floor + ((r > 0) & (rest + (floor & _U64(1)) > half))


def _digit_bytes(v):
    """The 8 decimal digits of each v < 10^8 as the bytes of a word, the
    first digit in the lowest byte: 4-digit lanes split into 2-digit and
    then 1-digit ones, with y // 100 = y * 5243 >> 19 for y < 10^4 and
    y // 10 = y * 103 >> 10 for y < 100."""
    high = v // _U64(10**4)
    t = high | ((v - high * _U64(10**4)) << _U64(32))
    h = ((t * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)
    t = h | ((t - h * _U64(100)) << _U64(16))
    h = ((t * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    return h | ((t - h * _U64(10)) << _U64(8))


def _top_byte(v):
    """The index of the highest nonzero byte of each word of digits, -1 in a zero word."""
    nonzero = (v + _U64(0x7F7F7F7F7F7F7F7F)) & _U64(0x8080808080808080)
    return np.frexp(nonzero.astype(np.float64))[1] // 8 - 1


def _format17(x: np.ndarray) -> list[bytes]:
    """b"%.17g" % v for each float64 v of x, in order.

    Positive floats in (1e-11, 1e16) are printed by the numpy kernel above;
    every other value (zeros, negatives, subnormals, inf, nan and the rest)
    by b"%.17g" % v itself.
    """
    fast = (x > 1e-11) & (x < 1e16)
    xf = np.where(fast, x, 1.0)
    bits = xf.view(np.uint64)
    M = (bits & _U64(2**52 - 1)) | _U64(2**52)
    E = (bits >> _U64(52)).astype(np.int64) - 1075
    q = np.floor(np.log10(xf)).astype(np.int64).clip(_Q_LO, _Q_HI)
    floor, N = _scaled(M, E, q)
    # log10 may miss q by one near a power of ten: move q, scale again
    off = (floor < _N_LO).astype(np.int64) - (floor >= _N_HI)
    if (fix := np.flatnonzero(off)).size:
        q[fix] -= off[fix]
        _, N[fix] = _scaled(M[fix], E[fix], q[fix])
    carried = N == _N_HI  # rounded up to 10^17, which is 10^16 at q + 1
    N[carried] = _N_LO
    q += carried
    # D as three words: digits 0-7, digits 8-15, digit 16
    first8 = N // _U64(10**9)
    last9 = N - first8 * _U64(10**9)
    ninth = last9 // _U64(10**8)
    last8 = _digit_bytes(last9 - ninth * _U64(10**8))
    d0 = _digit_bytes(first8)
    d1 = ninth | (last8 << _U64(8))
    d2 = last8 >> _U64(56)
    ndig = np.where(d2 != 0, 17, 9 + _top_byte(d1))
    ndig = np.where(ndig > 8, ndig, 1 + _top_byte(d0))
    layout = _layouts().take((q - _Q_LO) * 17 + ndig - 1, axis=1)
    ascii0 = _U64(0x3030303030303030)  # b"0" in every byte
    d0, d1, d2 = d0 | ascii0, d1 | ascii0, d2 | _U64(0x30)
    t = layout[9]
    out = np.empty((x.size, 3), dtype=np.uint64)
    out[:, 0] = (d0 & layout[0]) | ((d0 << t) & layout[3]) | layout[6]
    out[:, 1] = (d1 & layout[1]) | (((d1 << t) | (d0 >> (_U64(64) - t))) & layout[4]) | layout[7]
    out[:, 2] = (d2 & layout[2]) | (((d2 << t) | (d1 >> (_U64(64) - t))) & layout[5]) | layout[8]
    text = out.view("S24").ravel().tolist()
    slow = np.flatnonzero(~fast)
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        text[i] = b"%.17g" % value
    return text


def _table(
    header: Sequence[str], line: str, keys: Sequence[str], values,
    labels: Sequence[str] | None = None,
) -> Callable[[BinaryIO], None]:
    """A CSV table, as a closure that writes it to an open binary file: for
    each label in turn, one row per key.

    line is the text of one row: the key in place of "{}", the label in
    place of "@" (keys must not hold "@" when labels are given), and %.17g
    for each value. values holds the values of label i's row j at [i, j]
    (at [j] without labels), in column order. The values are printed by
    _format17, _BLOCK at a time, and rows go out in blocks of at most
    _CHUNK, each made by one prebuilt template and one % operation, so no
    string holds the whole file. The bytes are csv.writer's with every
    float printed as '%.17g' prints it.
    """

    def write(fh: BinaryIO) -> None:
        groups = labels if labels is not None else ("",)
        table = np.asarray(values, dtype=float).reshape(len(groups), len(keys), -1)
        escaped = [key.replace("%", "%%") for key in keys]
        row = line.replace("%.17g", "%b")
        blocks = [
            (lo, "".join(row.format(key) for key in escaped[lo : lo + _CHUNK]).encode("utf-8"))
            for lo in range(0, len(keys), _CHUNK)
        ]
        flat = table.ravel()
        cells = chain.from_iterable(
            _format17(flat[lo : lo + _BLOCK]) for lo in range(0, flat.size, _BLOCK)
        )
        head = io.StringIO()
        csv.writer(head, lineterminator="\n").writerow(header)
        fh.write(head.getvalue().encode("utf-8"))
        for label in groups:
            mark = label.replace("%", "%%").encode("utf-8")
            for lo, template in blocks:
                if labels is not None:
                    template = template.replace(b"@", mark)
                count = min(_CHUNK, len(keys) - lo) * table.shape[2]
                fh.write(template % tuple(islice(cells, count)))

    return write


def _json_text(obj) -> str:
    """obj as the JSON files and verify's stdout report hold it."""
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


# --- config fields -----------------------------------------------------------


def _real(value, field: str) -> float:
    """value as a float if it is a JSON number that fits one; a bool or a string is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{field} must fit a float, got {value!r}") from None


def _integer(value, field: str) -> int:
    """value if it is a JSON integer; a bool, a float (8.0 too) or a string is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    _real(value, field)
    return value


def _horizon(value, field: str) -> int:
    K = _integer(value, field)
    if not 1 <= K <= MAX_HORIZON:
        raise ConfigError(f"{field} must lie in [1, {MAX_HORIZON}], got {K}")
    return K


def _list_of(parse: Callable, nonempty: str = "") -> Callable:
    """The parser of a JSON list whose every entry parse accepts and which,
    where nonempty names its entries, holds at least one."""

    def parse_list(value, field: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{field} must be a list, got {value!r}")
        if nonempty and not value:
            raise ConfigError(f"{field} must be a nonempty list of {nonempty}")
        return tuple(parse(entry, f"{field} entry") for entry in value)

    return parse_list


_reals = _list_of(_real)


def _fields(section, table: Mapping, where: str, optional: Collection[str] = ()) -> dict:
    """section's fields, each parsed by its parser in table (None keeps it as is).

    Keys outside table are rejected, and so are missing ones unless optional;
    an optional key that is absent is absent from the result.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = [key for key in table if key not in section and key not in optional]
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")
    return {k: v if table[k] is None else table[k](v, k) for k, v in section.items()}


@cache  # uncached, a signature read tripled a section's parse: 9 -> 29 us (2-vCPU host)
def _parameters(build: Callable, own: tuple[str, ...] = ()) -> tuple[dict, frozenset]:
    """Each of build's parameters but those its caller fills itself (own)
    with its annotation's parser, and those with a default."""
    parameters = [p for p in inspect.signature(build).parameters.values() if p.name not in own]
    return ({p.name: _PARSERS[p.annotation] for p in parameters},
            frozenset(p.name for p in parameters if p.default is not p.empty))


def _call(build: Callable | Mapping, section, where: str, selector: str | None = None, **given):
    """build called on those of given it takes and on section's fields: its
    other parameters, each parsed by its annotation's parser and optional
    where it has a default. With a selector key, build maps names to calls,
    and the one that section's selector names is called; the key is dropped."""
    if selector:
        build = _variant(build, selector, section, where)
    parsers, optional = _parameters(build)
    table = {name: parse for name, parse in parsers.items() if name not in given}
    fields = _fields(section, {selector: None, **table} if selector else table, where, optional)
    fields.pop(selector, None)
    return build(**fields, **{name: v for name, v in given.items() if name in parsers})


def _variant(variants: Mapping, key: str, section, where: str | None = None):
    """The entry of variants that section's key names; where names a section
    below the config root."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    name = section.get(key)
    if not isinstance(name, str) or name not in variants:
        *others, last = variants
        expected = ", ".join(others) + ("," if len(others) > 1 else "") + f" or {last}"
        at = f" in {where}" if where else ""
        raise ConfigError(f"unknown {key} {name!r}{at}; expected {expected}")
    return variants[name]


_SCHEDULES = {cls.__name__.lower(): cls for cls in get_args(StepSchedule)}
_PROBLEMS = {"quadratic": make_quadratic, "power": make_power_family}
_CONSTANTS = {"sgd": sgd_constants, "rr": rr_constants}


def _build_schedule(section, K: int, where: str = "schedule") -> StepSchedule:
    """The family's schedule: its fields from section, and horizon K if it takes one."""
    return _call(_SCHEDULES, section, where, "family", horizon=K)


def _tuned(value, field: str):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, dict):
        return _fields(value, {"beta": _real}, field, ("beta",))
    raise ConfigError("tuned must be a boolean or an object with an optional beta")


# the parser of each parameter annotation of a call that a config feeds (None keeps the value)
_PARSERS = {"float": _real, "int": _integer, "int | None": _integer,
            "tuple[float, ...] | None": _reals, "str": None,
            "Mapping | bool | None": _tuned, "list[int]": _list_of(_integer, "integers"),
            "Problem": partial(_call, _PROBLEMS, selector="kind"),
            "NoiseModel": partial(_call, NoiseModel)}


def _reject_non_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite literal {text} in config; numbers must be finite")
    return value


def _load_config(path: Path | None) -> dict:
    if path is None:
        raise ConfigError("this command requires --config")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(
            text, parse_float=_reject_non_finite, parse_constant=_reject_non_finite
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _out_dir(out: Path | None, names: Sequence[str]) -> Path:
    """out, made if missing, once none of the named files there is anything
    but a regular file, so no work is done for an unwritable target."""
    if out is None:
        raise ConfigError("this command requires --out")
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        target = out / name
        if target.exists() and not target.is_file():
            raise ConfigError(f"cannot write {target}: it is not a regular file")
    return out


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- commands --------------------------------------------------------------
# Each takes the parsed arguments and the config, and returns its exit code
# and its files: file name -> a JSON value or a table closure, which main writes.


def _cmd_simulate_recursion(args: argparse.Namespace, config: dict) -> tuple[int, dict]:
    table = {"params": partial(_call, PLParams), "y0": _real,
             "k_grid": _list_of(_horizon, "positive integers"), "schedules": None}
    fields = _fields(config, table, "config")
    k_grid, entries = fields["k_grid"], fields["schedules"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("schedules must be a nonempty list")
    if not all(isinstance(entry, dict) and "id" in entry for entry in entries):
        raise ConfigError("each schedule needs an 'id' field")
    ids = [str(entry["id"]) for entry in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError("schedule ids must be unique")

    bodies = [{k: v for k, v in entry.items() if k != "id"} for entry in entries]
    params, y0 = fields["params"], fields["y0"]
    cells = [(params, _build_schedule(body, K, where=f"schedule {sid!r}"), y0, K)
             for K in k_grid for sid, body in zip(ids, bodies)]  # every schedule before any walk
    finals = simulate_pl_finals(cells)
    csv_ids = [_csv_field(sid) for sid in ids]
    keys = [f"{K},{field}" for K in k_grid for field in csv_ids]
    table = _table(["K", "schedule_id", "y_K"], "{},%.17g\n", keys, finals)
    return EXIT_OK, {"recursion.csv": table}


_BOUNDS = {"exp": bound_exp, "cos": bound_cos, "const": bound_const, "poly": bound_poly}
# bound's keys besides its evaluator's parameters: method and constants build
# the method constants (mc, bound_poly's constants), schedule the schedule,
# and K, the schedule's horizon, is a key of every family; bound_poly's delta
# applies only to PLParams constants, which bound never builds
_BOUND_KEYS = {"method": None, "family": None, "constants": None, "schedule": None, "K": _integer}
_BOUND_OWN = ("mc", "constants", "schedule", "delta")


@cache
def _bound_parameters(evaluate: Callable) -> tuple[dict, frozenset, type]:
    """evaluate's _parameters but those bound fills itself, its optional keys
    (schedule too where its annotation admits None), and its schedule class."""
    parsers, optional = _parameters(evaluate, _BOUND_OWN)
    kind, _, none = inspect.signature(evaluate).parameters["schedule"].annotation.partition(" | ")
    return parsers, (optional | {"schedule"}) if none else optional, _SCHEDULES[kind.lower()]


def _cmd_bound(args: argparse.Namespace, config: dict) -> tuple[int, dict]:
    evaluate = _variant(_BOUNDS, "family", config)
    parsers, optional, kind = _bound_parameters(evaluate)
    fields = _fields(config, {**_BOUND_KEYS, **parsers}, "config", optional)
    mc = _call(_variant(_CONSTANTS, "method", config), fields["constants"], "constants")
    K = fields["K"]
    if K < 1:
        raise ConfigError("K must be a positive integer")
    schedule = None
    if "schedule" in fields:
        schedule = _build_schedule(fields["schedule"], K)
        if not isinstance(schedule, kind):
            needs = f"needs a {kind.__name__.lower()} schedule"
            raise ConfigError(f"family {config['family']!r} {needs}")
    given = {name: value for name, value in fields.items() if name in parsers}
    try:
        result = evaluate(mc, schedule, **given)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        failure = {"error": "precondition-failure", "failed_precondition": str(exc)}
        return EXIT_PRECONDITION_FAILURE, {"bound.json": failure}
    print(f"bound value {_fmt(result.value)} ({result.regime})")
    return EXIT_OK, {"bound.json": dataclasses.asdict(result)}


_RUNNERS = {"gd": gd_run, "sgd": sgd_run, "rr": rr_run}
# run's keys that its runner's annotations do not parse: the schedule, built
# at horizon K; K, a horizon that is materialized; and x0, which has none
_RUN_KEYS = {"algorithm": None, "schedule": None, "K": _horizon, "x0": _reals}


def _cmd_run(args: argparse.Namespace, config: dict) -> tuple[int, dict]:
    runner = _variant(_RUNNERS, "algorithm", config)
    parsers, _ = _parameters(runner, tuple(_RUN_KEYS))
    fields = _fields(config, {**_RUN_KEYS, **parsers}, "config")
    del fields["algorithm"]
    fields["schedule"] = _build_schedule(fields["schedule"], fields["K"])

    manifest = {"version": __version__, "command": "run", "config": config,
                "config_sha256": _config_digest(config), "problem_check": {"skipped": True}}
    if not args.skip_verify:
        report = verify_pl(fields["problem"], sample_count=1000, seed=args.seed)
        manifest["problem_check"] = {"skipped": False, **dataclasses.asdict(report)}
        if not report.passed:
            at = f"margin {report.margin} at {report.witness_index}"
            print(f"problem verification failed: {at}", file=sys.stderr)
            return EXIT_PROBLEM_VERIFICATION, {"manifest.json": manifest}

    trajectory = runner(**fields)
    steps = [str(k) for k in range(trajectory.gaps.shape[1])]
    labels = [str(s) for s in trajectory.seeds] or ["0"]
    stats = np.stack((trajectory.mean, trajectory.stderr), axis=1)
    gaps = _table(["k", "seed", "gap"], "{},@,%.17g\n", steps, trajectory.gaps, labels)
    mean = _table(["k", "mean_gap", "stderr"], "{},%.17g,%.17g\n", steps, stats)
    tables = {"trajectories.csv": gaps, "mean.csv": mean}
    manifest.update(seed=args.seed, seeds=list(trajectory.seeds),
                    left_domain=list(trajectory.left_domain),
                    outputs={name.removesuffix(".csv"): name for name in tables})
    return EXIT_OK, {**tables, "manifest.json": manifest}


_SUITES = {
    "chung": lambda args: chung_suite(args.draws, args.seed),
    "bounds": lambda args: bounds_suite(args.draws, args.seed),
    "inequalities": lambda args: tech_inequality_suite(args.k_max, DEFAULT_R_GRID),
    "assumptions": lambda args: assumptions_suite(args.draws, args.seed),
}


def _cmd_verify(args: argparse.Namespace, config: None) -> tuple[int, dict]:
    """The suite's report: in report.json under --out, else on stdout."""
    suite = _SUITES[args.suite](args)
    report = {
        "suite": args.suite,
        "passed": suite.passed,
        "checks": [dataclasses.asdict(c) for c in suite.checks],
        **suite.counts,
    }
    for c in suite.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"  [{status}] {c.check} margin={_fmt(float(c.margin))}")
    for key, value in suite.counts.items():
        print(f"  {key}: {value}")
    if args.out is None:
        print(_json_text(report), end="")
    print(f"suite {args.suite}: {'pass' if suite.passed else 'FAIL'}")
    code = EXIT_OK if suite.passed else EXIT_VERIFY_FAILURE
    return code, {} if args.out is None else {"report.json": report}


# each table fit reads, by its header: a row's series name, horizon and value
_SERIES = {
    ("K", "schedule_id", "y_K"): lambda row: (row[1], row[0], row[2]),
    ("k", "mean_gap", "stderr"): lambda row: ("mean", row[0], row[1]),
    ("k", "seed", "gap"): lambda row: (f"seed-{row[1]}", row[0], row[2]),
}


def _read_series(path: Path) -> dict[str, list[tuple[int, float]]]:
    """Each series of the table at path, but its rows below horizon 1, such
    as a run table's start row k = 0."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            point = _SERIES.get(tuple(header or ()))
            if point is None:
                raise ConfigError(f"unrecognized CSV header {header} in {path}")
            series: dict[str, list[tuple[int, float]]] = {}
            for name, k, value in map(point, reader):
                if int(k) >= 1:
                    series.setdefault(name, []).append((int(k), float(value)))
            return series
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed CSV {path}: {exc}") from exc


def _cmd_fit(args: argparse.Namespace, config: dict) -> tuple[int, dict]:
    fields = _fields(config, {"input": None, "window": _list_of(_integer)}, "config", ("window",))
    window = fields.get("window")
    if window is not None and len(window) != 2:
        raise ConfigError("window must be a two-element [lo, hi] list")
    series = _read_series(Path(str(fields["input"])))
    if not series:
        raise ConfigError(f"no data rows in {fields['input']}")
    results = {}
    for name in sorted(series):
        fit = fit_loglog(series[name], window=window)
        lo, hi = fit.window
        results[name] = {"slope": fit.slope, "intercept": fit.intercept,
                         "r_squared": fit.r_squared, "window_lo": lo, "window_hi": hi}
        print(f"  {name}: slope {_fmt(fit.slope)} (r^2 {_fmt(fit.r_squared)})")
    payload = next(iter(results.values())) if len(results) == 1 else results
    return EXIT_OK, {"fit.json": payload}


def _cmd_heatmap(args: argparse.Namespace, config: dict) -> tuple[int, dict]:
    table = {"method": None, "p_grid": _reals, "theta_grid": _reals}
    fields = _fields(config, table, "config", ("p_grid", "theta_grid"))
    p_grid = fields.get("p_grid", [(i + 1) / 101.0 for i in range(101)])
    theta_grid = fields.get("theta_grid", [float(v) for v in np.linspace(0.5, 1.0, 51)])
    grid = heatmap_grid(p_grid, theta_grid, str(fields["method"]))
    table = _table(["theta", "p", "exponent"], "@,{},%.17g\n", [_fmt(p) for p in p_grid], grid,
                   [_fmt(theta) for theta in theta_grid])
    return EXIT_OK, {"heatmap.csv": table}


# each command's function, help line, and the files it may write under --out
_COMMANDS = {
    "simulate-recursion": (_cmd_simulate_recursion,
                           "iterate the worst-case progress recursion over a K-grid",
                           ("recursion.csv",)),
    "bound": (_cmd_bound, "evaluate one theorem bound", ("bound.json",)),
    "run": (_cmd_run, "run gd/sgd/rr on a synthetic problem",
            ("trajectories.csv", "mean.csv", "manifest.json")),
    "verify": (_cmd_verify, "run a verification suite", ("report.json",)),
    "fit": (_cmd_fit, "fit log-log rates to an emitted CSV", ("fit.json",)),
    "heatmap": (_cmd_heatmap, "emit the theoretical rate map", ("heatmap.csv",)),
}


# --- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="steprates",
        description="Recursion bounds, reference runs, and rate maps for step-size schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        if name != "verify":
            command.add_argument("--config", type=Path, help="path to a JSON config")
            command.add_argument("--out", type=Path, help="output directory")
    run = sub.choices["run"]
    run.add_argument("--seed", type=int, default=0, help="seed of the random draws")
    run.add_argument(
        "--skip-verify", action="store_true", help="skip the pre-run problem verification"
    )
    suites = sub.choices["verify"].add_subparsers(dest="suite", required=True)
    for name in _SUITES:
        suite = suites.add_parser(name)
        suite.add_argument("--out", type=Path, help="output directory")
        if name == "inequalities":
            suite.add_argument("--k-max", type=int, default=512, help="largest horizon for grids")
        else:
            suite.add_argument("--draws", type=int, default=1000, help="randomized draw count")
            suite.add_argument("--seed", type=int, default=0, help="seed of the random draws")
    return parser


@cache  # one parser per process: parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _write(out: Path, files: Mapping[str, object]) -> list[Path]:
    """Write each file under out in place, in order: a JSON value as
    _json_text, a table by its closure. If a write raises, every file opened
    here is removed before the error propagates."""
    written: list[Path] = []
    try:
        for name, content in files.items():
            path = out / name
            with open(path, "wb") as fh:
                written.append(path)
                if callable(content):
                    content(fh)
                else:
                    fh.write(_json_text(content).encode("utf-8"))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else EXIT_OK
    command, _, names = _COMMANDS[args.command]
    # verify alone reads no config, and prints its report when --out is absent
    verify = args.command == "verify"
    try:
        config = None if verify else _load_config(args.config)
        out = None if verify and args.out is None else _out_dir(args.out, names)
        code, files = command(args, config)
        written = _write(out, files)
        if code in (EXIT_OK, EXIT_VERIFY_FAILURE):  # the error exits print only to stderr
            for path in written:
                print(f"wrote {path}")
        return code
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION_FAILURE
    # ConfigError, the library's checks of its arguments, and an --out that
    # cannot be made or written, whose message names the path
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
