#!/usr/bin/env python3
"""Validate tinysdr JSON documents (bench, job, and result schemas).

One validator for every smoke step in scripts/verify.sh and CI, and the
loader the perf gate (scripts/perf_gate.py) builds on. Checks, in order:

  1. The file parses as JSON.
  2. `schema` matches (default tinysdr-bench-v1; --schema overrides,
     --parse-only stops after step 1).
  3. Schema-specific shape checks:
     - tinysdr-bench-v1: `config` and `scalars` are name->number maps
       and `series` entries are shape-consistent (every row has
       1 + len(y_labels) columns).
     - tinysdr-job-v1: a campaign job as submitted to tinysdr_serve —
       at least one of `sweeps` / `fleets`, each sweep naming a phy and
       a non-empty numeric rssi grid.
     - tinysdr-result-v1: a campaign result as produced by the server —
       embeds the canonical job, one `sweeps` entry per job sweep with
       7-column points, one `fleets` entry per job fleet with 9-column
       per-node rows.
  4. Any requested content assertions (bench schema only):
       --series NAME        series exists and has at least one row
       --eq NAME=VALUE      scalar equals VALUE exactly
       --gt NAME=VALUE      scalar is strictly greater than VALUE
       --config-eq NAME=VALUE  config entry equals VALUE exactly
  5. Any requested cross-file assertions (bench schema only):
       --same-series NAME   every file has the same rows for the series

Exits 0 when every file passes every check, 1 with a message otherwise.
"""

import argparse
import json
import sys


class BenchJsonError(Exception):
    """A bench document failed validation."""


def load_bench(path, schema="tinysdr-bench-v1"):
    """Load and shape-check one bench document; raises BenchJsonError."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise BenchJsonError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise BenchJsonError(f"{path}: top level is not an object")
    if schema is not None:
        got = doc.get("schema")
        if got != schema:
            raise BenchJsonError(f"{path}: schema is {got!r}, want {schema!r}")
    for block in ("config", "scalars"):
        entries = doc.get(block, {})
        if not isinstance(entries, dict):
            raise BenchJsonError(f"{path}: {block!r} is not an object")
        for name, value in entries.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise BenchJsonError(
                    f"{path}: {block} entry {name!r} is not a number: "
                    f"{value!r}")
    series = doc.get("series", {})
    if not isinstance(series, dict):
        raise BenchJsonError(f"{path}: 'series' is not an object")
    for name, s in series.items():
        if not isinstance(s, dict):
            raise BenchJsonError(f"{path}: series {name!r} is not an object")
        y_labels = s.get("y_labels")
        rows = s.get("rows")
        if not isinstance(y_labels, list) or not isinstance(rows, list):
            raise BenchJsonError(
                f"{path}: series {name!r} missing y_labels/rows lists")
        want = 1 + len(y_labels)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != want:
                raise BenchJsonError(
                    f"{path}: series {name!r} row {i} has "
                    f"{len(row) if isinstance(row, list) else '?'} columns, "
                    f"want {want}")
            for v in row:
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise BenchJsonError(
                        f"{path}: series {name!r} row {i} has a "
                        f"non-number: {v!r}")
    return doc


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise BenchJsonError(f"{path}: {err}") from err


def check_job_doc(doc, path, ctx="job"):
    """Shape-check a tinysdr-job-v1 document (or a result's embedded job)."""
    if not isinstance(doc, dict):
        raise BenchJsonError(f"{path}: {ctx} is not an object")
    if doc.get("schema") != "tinysdr-job-v1":
        raise BenchJsonError(
            f"{path}: {ctx} schema is {doc.get('schema')!r}, "
            f"want 'tinysdr-job-v1'")
    sweeps = doc.get("sweeps", [])
    fleets = doc.get("fleets", [])
    if not isinstance(sweeps, list) or not isinstance(fleets, list):
        raise BenchJsonError(f"{path}: {ctx} sweeps/fleets are not arrays")
    if not sweeps and not fleets:
        raise BenchJsonError(f"{path}: {ctx} has no sweeps and no fleets")
    for i, sweep in enumerate(sweeps):
        where = f"{ctx} sweeps[{i}]"
        if not isinstance(sweep, dict):
            raise BenchJsonError(f"{path}: {where} is not an object")
        phy = sweep.get("phy")
        if not isinstance(phy, str) or not phy:
            raise BenchJsonError(f"{path}: {where} needs a 'phy' name")
        rssi = sweep.get("rssi")
        if (not isinstance(rssi, list) or not rssi
                or not all(_is_number(x) for x in rssi)):
            raise BenchJsonError(
                f"{path}: {where} 'rssi' must be a non-empty number array")
        for knob in ("trials", "payload_bytes", "base_seed", "pad_samples",
                     "noise_figure_db"):
            if knob in sweep and not _is_number(sweep[knob]):
                raise BenchJsonError(
                    f"{path}: {where} {knob!r} is not a number")
    for i, fleet in enumerate(fleets):
        where = f"{ctx} fleets[{i}]"
        if not isinstance(fleet, dict):
            raise BenchJsonError(f"{path}: {where} is not an object")
        for knob in ("nodes", "trials_per_node", "payload_bytes",
                     "base_seed", "deployment_seed"):
            if knob in fleet and not _is_number(fleet[knob]):
                raise BenchJsonError(
                    f"{path}: {where} {knob!r} is not a number")
        if "phy" in fleet and not isinstance(fleet["phy"], str):
            raise BenchJsonError(f"{path}: {where} 'phy' is not a string")
    return doc


def check_result_doc(doc, path):
    """Shape-check a tinysdr-result-v1 document from the campaign server."""
    if not isinstance(doc, dict):
        raise BenchJsonError(f"{path}: top level is not an object")
    if doc.get("schema") != "tinysdr-result-v1":
        raise BenchJsonError(
            f"{path}: schema is {doc.get('schema')!r}, "
            f"want 'tinysdr-result-v1'")
    job = check_job_doc(doc.get("job"), path, ctx="embedded job")
    sweeps = doc.get("sweeps")
    fleets = doc.get("fleets")
    if not isinstance(sweeps, list) or not isinstance(fleets, list):
        raise BenchJsonError(f"{path}: result sweeps/fleets are not arrays")
    if len(sweeps) != len(job.get("sweeps", [])):
        raise BenchJsonError(
            f"{path}: {len(sweeps)} sweep results for "
            f"{len(job.get('sweeps', []))} job sweeps")
    if len(fleets) != len(job.get("fleets", [])):
        raise BenchJsonError(
            f"{path}: {len(fleets)} fleet results for "
            f"{len(job.get('fleets', []))} job fleets")
    for i, sweep in enumerate(sweeps):
        points = sweep.get("points") if isinstance(sweep, dict) else None
        if not isinstance(points, list):
            raise BenchJsonError(f"{path}: sweeps[{i}] has no points array")
        if len(points) != len(job["sweeps"][i].get("rssi", [])):
            raise BenchJsonError(
                f"{path}: sweeps[{i}] has {len(points)} points for "
                f"{len(job['sweeps'][i].get('rssi', []))} grid rssi values")
        for k, point in enumerate(points):
            # [rssi, frames, frame_errors, bits, bit_errors, symbols,
            #  symbol_errors]
            if (not isinstance(point, list) or len(point) != 7
                    or not all(_is_number(x) for x in point)):
                raise BenchJsonError(
                    f"{path}: sweeps[{i}] point {k} is not a 7-number row")
    for i, fleet in enumerate(fleets):
        rows = fleet.get("per_node") if isinstance(fleet, dict) else None
        if not isinstance(rows, list):
            raise BenchJsonError(f"{path}: fleets[{i}] has no per_node array")
        for k, row in enumerate(rows):
            # [node_id, "phy", rssi, frames, frame_errors, bits,
            #  bit_errors, symbols, symbol_errors]
            if (not isinstance(row, list) or len(row) != 9
                    or not _is_number(row[0])
                    or not isinstance(row[1], str)
                    or not all(_is_number(x) for x in row[2:])):
                raise BenchJsonError(
                    f"{path}: fleets[{i}] node row {k} is malformed")
    return doc


def _scalar(doc, path, name):
    scalars = doc.get("scalars", {})
    if name not in scalars:
        raise BenchJsonError(f"{path}: no scalar named {name!r}")
    return scalars[name]


def check_file(path, args):
    """Run every requested check against one file; raises BenchJsonError."""
    if args.parse_only:
        _load_json(path)
        return
    if args.schema == "tinysdr-job-v1":
        check_job_doc(_load_json(path), path)
        return
    if args.schema == "tinysdr-result-v1":
        check_result_doc(_load_json(path), path)
        return
    doc = load_bench(path, schema=args.schema)
    for name, want in args.config_eq:
        config = doc.get("config", {})
        if name not in config:
            raise BenchJsonError(f"{path}: no config entry named {name!r}")
        if config[name] != want:
            raise BenchJsonError(
                f"{path}: config {name} == {config[name]}, want {want}")
    for name in args.series:
        series = doc.get("series", {})
        if name not in series:
            raise BenchJsonError(f"{path}: no series named {name!r}")
        if not series[name]["rows"]:
            raise BenchJsonError(f"{path}: series {name!r} is empty")
    for name, want in args.eq:
        got = _scalar(doc, path, name)
        if got != want:
            raise BenchJsonError(f"{path}: scalar {name} == {got}, want {want}")
    for name, floor in args.gt:
        got = _scalar(doc, path, name)
        if not got > floor:
            raise BenchJsonError(
                f"{path}: scalar {name} == {got}, want > {floor}")


def check_same_series(paths, name, schema):
    """Require identical rows for series `name` in every file."""
    first = None
    for path in paths:
        series = load_bench(path, schema=schema).get("series", {})
        if name not in series:
            raise BenchJsonError(f"{path}: no series named {name!r}")
        rows = series[name]["rows"]
        if first is None:
            first = (path, rows)
        elif rows != first[1]:
            raise BenchJsonError(
                f"{path}: series {name!r} rows differ from {first[0]}")


def _name_value(text):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        return name, float(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad number in {text!r}") from err


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="bench JSON files to check")
    parser.add_argument("--schema", default="tinysdr-bench-v1",
                        help="expected 'schema' value")
    parser.add_argument("--parse-only", action="store_true",
                        help="only require the file to parse as JSON")
    parser.add_argument("--series", action="append", default=[],
                        metavar="NAME",
                        help="require a non-empty, shape-consistent series")
    parser.add_argument("--eq", action="append", default=[], type=_name_value,
                        metavar="NAME=VALUE", help="require scalar equality")
    parser.add_argument("--gt", action="append", default=[], type=_name_value,
                        metavar="NAME=VALUE",
                        help="require scalar strictly greater than VALUE")
    parser.add_argument("--config-eq", action="append", default=[],
                        type=_name_value, metavar="NAME=VALUE",
                        help="require config-block entry equality")
    parser.add_argument("--same-series", action="append", default=[],
                        metavar="NAME",
                        help="require identical series rows in every file")
    args = parser.parse_args(argv)

    for path in args.files:
        try:
            check_file(path, args)
        except BenchJsonError as err:
            print(f"check_bench_json: FAIL: {err}", file=sys.stderr)
            return 1
        print(f"check_bench_json: OK: {path}")
    for name in args.same_series:
        try:
            check_same_series(args.files, name, args.schema)
        except BenchJsonError as err:
            print(f"check_bench_json: FAIL: {err}", file=sys.stderr)
            return 1
        print(f"check_bench_json: OK: series {name!r} identical in "
              f"{len(args.files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
