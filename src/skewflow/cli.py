"""Command-line front end.

Commands:
  gallery list        built-in systems with defaults and tags
  axioms              flow-law checks on seeded probes
  growth              growth-envelope estimation (uniform and binned)
  classify            the criterion panel and classification
  sweep               parameter sweep, one CSV row per combination

Exit codes: 0 definite verdict, 1 inconclusive, 2 usage/config error,
3 classification contradicts a declared ground-truth tag.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import itertools
import json
import os
import pickle
import sys
import threading
from dataclasses import fields
from datetime import datetime, timezone

from . import gallery
from .config import ConfigError, RunConfig, load_config_file, merge_config
from .core import System, check_cocycle_law, check_declarations, check_semiflow_law
from .errors import InvalidParams, TimeOrderViolation
from .gauges import make_gauge
from .growth import estimate_growth, verify_growth
from .nonuniform import UES_CRITERIA, run_nonuniform_panel
from .probes import law_probes, ratio_data
from .reports import FAIL, INCONCLUSIVE, PASS, TAG_COMPATIBLE, UES
from .uniform import Skipped, test_datko

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_CONFIG = 2
EXIT_CONTRADICTION = 3


@functools.cache  # built on the first call: argparse copies an append default before appending to it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="skewflow", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--system", type=str, default=None)
        sp.add_argument("--param", action="append", default=[], metavar="K=V")
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--criteria", type=str, default=None, help="comma list or 'all'")
        sp.add_argument("--gauge", type=str, default=None,
                        help="identity | pow:P | sat:C | table:@file.csv")
        sp.add_argument("--grid-h", dest="grid_h", type=float, default=None)
        sp.add_argument("--grid-step", dest="grid_step", type=float, default=None)
        sp.add_argument("--tmax", type=float, default=None)
        sp.add_argument("--delta-max", dest="delta_max", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--ncap", type=float, default=None)
        sp.add_argument("--eval-cap", dest="eval_cap", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", type=str, default=None, choices=["json", "csv"])
        sp.add_argument("--omega-const", dest="omega_const", action="store_true", default=None)

    g = sub.add_parser("gallery", help="list built-in systems")
    g.add_argument("action", choices=["list"])
    g.add_argument("--out", type=str, default=None)

    for name in ("axioms", "growth", "classify"):
        sp = sub.add_parser(name)
        common(sp)

    sw = sub.add_parser("sweep")
    common(sw)
    sw.add_argument("--sweep", action="append", default=[], metavar="K=V1,V2,...")
    return p


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param needs K=V, got {pair!r}")
        k, v = pair.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError:
            raise ConfigError(f"--param value must be numeric, got {pair!r}")
    return out


def _config_from_args(args) -> RunConfig:
    file_doc = load_config_file(args.config) if args.config else None
    # every flag is named after its RunConfig field; unset flags are None
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    params = _parse_params(args.param)
    cfg = merge_config(file_doc, flags)
    cfg.params = {**cfg.params, **params}
    return cfg


def _build_system(cfg: RunConfig, params: dict | None = None) -> System:
    params = cfg.params if params is None else params
    if cfg.custom_system is not None:
        if params:  # as gallery.build rejects a name its system does not read
            raise InvalidParams(f"a custom system has no parameter {', '.join(sorted(params))}; it takes none")
        return gallery.build_custom(cfg.custom_system)
    if not cfg.system:
        raise ConfigError("no system selected (use --system or a config file)")
    return gallery.build(cfg.system, params)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out_path: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _base_doc(command: str, cfg: RunConfig | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.echo() if cfg else {},
    }


def cmd_gallery(args) -> int:
    doc = _base_doc("gallery", None)
    doc["entries"] = gallery.gallery_entries()
    doc["exit_code"] = EXIT_OK
    _emit(doc, args.out)
    return EXIT_OK


def cmd_axioms(args) -> int:
    cfg = _config_from_args(args)
    system = _build_system(cfg)
    tol = cfg.tol
    probes = law_probes(system, 200, cfg.seed)
    if cfg.probes:
        for row in cfg.probes:
            t, s, t0 = float(row[0]), float(row[1]), float(row[2])
            if not (t >= s >= t0 >= 0):
                raise TimeOrderViolation(f"injected probe violates time order: {row}")
            probes.append((t, s, t0, system.state_samples[0], system.vector_samples[0]))
    semi = check_semiflow_law(system, probes)
    coc = check_cocycle_law(system, probes)
    # a declaration is a law too: a false one would share integrals wrongly
    shift, state = check_declarations(system, probes)
    devs = [semi.max_composition_dev, semi.max_identity_dev, coc.max_composition_dev, coc.max_identity_dev, shift, state]
    ok = all(d is None or d <= tol for d in devs)
    doc = _base_doc("axioms", cfg)
    doc["system"] = system.name
    doc["laws"] = {
        "semiflow": semi.as_dict(),
        "cocycle": coc.as_dict(),
        "time_invariance": shift,
        "state_independence": state,
        "tolerance": tol,
        "ok": ok,
    }
    code = EXIT_OK if ok else EXIT_INCONCLUSIVE
    doc["exit_code"] = code
    _emit(doc, cfg.out)
    return code


def cmd_growth(args) -> int:
    cfg = _config_from_args(args)
    system = _build_system(cfg)
    data = ratio_data(system, lag_max=cfg.grid_h, s_step=cfg.grid_step)
    uni = estimate_growth(system, "uniform", grid_h=cfg.grid_h, data=data)
    non = estimate_growth(system, "nonuniform", grid_h=cfg.grid_h, data=data, omega_const=cfg.omega_const)
    doc = _base_doc("growth", cfg)
    doc["system"] = system.name
    doc["growth"] = {
        "uniform": uni.as_dict(),
        "nonuniform": non.as_dict(),
        "uniform_verified": verify_growth(system, uni, ratio_data(system, lag_max=10.0, within=data)) is None,
    }
    doc["exit_code"] = EXIT_OK
    _emit(doc, cfg.out)
    return EXIT_OK


# bands of a probe set the run could not afford: no detector result either way
STARVED_BANDS = (Skipped("budget").band, Skipped("horizon").band)


def starved(report) -> bool:
    return report.evidence.get("band") in STARVED_BANDS


def check_ground_truth(system: System, verdict, cfg: RunConfig) -> list:
    """Inconsistencies between the computed panel and a declared tag, by the README's exit-code rules.

    A starved report (budget- or horizon-limited) is skipped.
    """
    tag = system.ground_truth
    if tag is None:
        return []
    out = []
    by_id = {r.criterion_id: r for r in verdict.criteria if not starved(r)}
    if tag == UES:
        for cid in UES_CRITERIA:
            r = by_id.get(cid)
            if r is not None and r.verdict != PASS:
                out.append(f"tag UES but {cid} returned {r.verdict}")
        # expected to pass, and so to read every probe, when the decay fit passed
        expect = () if by_id["fit-exp"].verdict == PASS else None
        for form, time in (("vector", "continuous"), ("operator", "continuous"),
                           ("vector", "discrete")):
            r = test_datko(system, form, time, make_gauge("pow:2"), cfg, expect=expect)
            if r.verdict != PASS and not starved(r):
                out.append(f"tag UES but {r.criterion_id} with pow:2 returned {r.verdict}")
    identity = make_gauge("identity")
    if tag in ("US-not-UES", "ES-not-UES"):  # memoized: under the identity gauge, the panel's own datko-v
        r = test_datko(system, "vector", "continuous", identity, cfg)
        if r.verdict != FAIL and not starved(r):
            out.append(f"tag {tag} but datko-v did not fail with a witness")
    compatible = TAG_COMPATIBLE.get(tag)
    if (compatible and make_gauge(cfg.gauge) == identity and verdict.label != "inconclusive"
            and verdict.label not in compatible):
        out.append(f"tag {tag} contradicted by computed verdict {verdict.label}")
    return out


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    system = _build_system(cfg)
    selected = cfg.selected_criteria()
    verdict = run_nonuniform_panel(system, cfg, selected=selected)
    doc = _base_doc("classify", cfg)
    doc["system"] = system.name
    doc["ground_truth"] = system.ground_truth
    doc.update(verdict.as_dict())
    if selected is not None:
        # report-only mode: definite when every selected criterion resolved
        doc["verdict"] = None
        unresolved = [r.criterion_id for r in verdict.criteria if r.verdict == "inconclusive"]
        code = EXIT_OK if not unresolved else EXIT_INCONCLUSIVE
        doc["contradictions"] = []
    else:
        contradictions = check_ground_truth(system, verdict, cfg)
        doc["contradictions"] = contradictions
        if contradictions:
            code = EXIT_CONTRADICTION
        elif verdict.label == "inconclusive" or any(starved(r) for r in verdict.criteria):
            code = EXIT_INCONCLUSIVE
        else:
            code = EXIT_OK
    doc["exit_code"] = code
    _emit(doc, cfg.out)
    return code


def _parse_sweep(specs) -> dict:
    ranges = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--sweep needs K=V1,V2,..., got {spec!r}")
        k, vs = spec.split("=", 1)
        try:
            values = [float(v) for v in vs.split(",") if v != ""]
        except ValueError:
            raise ConfigError(f"bad sweep values in {spec!r}")
        if not values:
            raise ConfigError(f"empty sweep range in {spec!r}")
        ranges[k.strip()] = values
    return ranges


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _outcomes(row, items) -> list:
    """(True, row(item)) per item, and (False, exception) from the first failing item on."""
    out = []
    for item in items:
        try:
            out.append((True, row(item)))
        except Exception as exc:
            return out + [(False, exc)] * (len(items) - len(out))
    return out


def _map_rows(row, items) -> list:
    """[row(item) for item in items], item i on worker i mod n of up to the usable CPUs.

    Worker 0 is this process and the others are forked children, reaped before this
    returns or raises; a running thread keeps every item here, as a fork copies only
    the caller.  As in the serial loop, the lowest failing item's exception is raised.
    """
    n = min(len(items), _usable_cpus()) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    children, outcomes = {}, {}
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: worker k's items run here
                os.close(r)
                os.close(w)
                continue
            if pid == 0:  # os._exit: no atexit handler, no inherited stdio flush, no caller's cleanup
                try:
                    out = _outcomes(row, items[k::n])
                    try:
                        pickle.loads(data := pickle.dumps(out))
                    except Exception:  # the error document shows only the type name and message
                        data = pickle.dumps([(ok, v if ok else (type(v).__name__, str(v))) for ok, v in out])
                    with os.fdopen(w, "wb") as fh:
                        fh.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[k] = (pid, r)
        outcomes.update((k, _outcomes(row, items[k::n])) for k in range(n) if k not in children)
    finally:
        for k, (pid, r) in children.items():
            with os.fdopen(r, "rb") as fh:
                data = fh.read()
            dead = [(False, RuntimeError("a sweep worker ended without a result"))] * len(items[k::n])
            outcomes[k] = pickle.loads(data) if os.waitpid(pid, 0)[1] == 0 else dead
    done = [outcomes[i % n][i // n] for i in range(len(items))]
    for ok, value in done:
        if not ok:
            raise value if isinstance(value, Exception) else type(value[0], (Exception,), {})(value[1])
    return [value for _, value in done]


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    ranges = _parse_sweep(args.sweep)
    names = sorted(ranges)
    combos = list(itertools.product(*(ranges[n] for n in names))) if names else []
    if len(combos) > 1000:
        raise ConfigError(f"sweep has {len(combos)} combinations, cap is 1000")
    if not combos:  # no row builds the system, so check that one is selected here
        _build_system(cfg)

    def row(combo) -> list:
        system = _build_system(cfg, {**cfg.params, **dict(zip(names, combo))})
        verdict = run_nonuniform_panel(system, cfg)
        passed = {r.criterion_id: r.evidence for r in verdict.criteria if r.verdict == PASS}
        fit, nfit = passed.get("fit-exp", {}), passed.get("fit-exp-nu", {})
        counts = collections.Counter(r.verdict for r in verdict.criteria)
        return [*combo, verdict.label, fit.get("N", ""), fit.get("nu", ""), nfit.get("max_N_of_s", ""),
                nfit.get("nu", ""), counts[PASS], counts[FAIL], counts[INCONCLUSIVE]]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        names + ["verdict", "N", "nu", "max_N_of_s", "nu_nonuniform",
                 "pass", "fail", "inconclusive"]
    )
    writer.writerows(_map_rows(row, combos))
    _write(buf.getvalue(), cfg.out)
    return EXIT_OK


COMMANDS = {
    "gallery": cmd_gallery,
    "axioms": cmd_axioms,
    "growth": cmd_growth,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except Exception as exc:  # a SkewflowError, or an input no check foresaw: never exit 1
        err = _base_doc(args.command, None)
        err["error"] = f"{type(exc).__name__}: {exc}"
        err["exit_code"] = EXIT_CONFIG
        _emit(err, None)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
