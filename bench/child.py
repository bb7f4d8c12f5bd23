"""Run one command of the benchmark in a fresh interpreter.

Usage: ``python3 bench/child.py REQUEST.json``.  The request names the
``repro`` CLI arguments (``argv``), where to write the result (``result``)
and the ``mode``:

* ``import`` — only import ``repro.cli`` (a set-up sample);
* ``run``    — import, then time ``repro.cli.main(argv)``;
* ``trace``  — the same with every layer boundary wrapped in a span and the
  program's telemetry active (see :mod:`layers`).

``net_probe`` (``run`` mode) also reads the sync-frame delays of a ``net``
command from its single audit call.

The parent reads the process's CPU time and peak RSS from ``wait4`` and
computes set-up time from its own spawn timestamp and the ``ready``
monotonic timestamp written here.
"""

import json
import resource
import sys
import time
import traceback


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _status(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def _run(request: dict) -> dict:
    import repro.cli

    notes: dict = {}
    recorder = telemetry = None
    if request["mode"] == "trace":
        import layers
        from repro.telemetry import Telemetry, activated, get_active
        from spans import Recorder
        telemetry = Telemetry()
        recorder = Recorder(request["run"],
                            forward=layers.forward_to(get_active))
        layers.install(recorder, notes)
    elif request.get("net_probe"):
        import layers
        layers.install(None, notes)
    error = None
    cpu_start = _cpu()
    start = time.perf_counter()
    try:
        if recorder is None:
            status = _status(repro.cli.main(request["argv"]))
        else:
            with activated(telemetry):
                span, token = recorder.open("cli")
                try:
                    status = _status(repro.cli.main(request["argv"]))
                finally:
                    recorder.close(span, token)
    except SystemExit as exc:
        status = _status(exc.code)
    except Exception:  # the command crashed: report it, don't hide it
        status, error = 1, traceback.format_exc()
    out = {"wall_s": time.perf_counter() - start, "cpu_start": cpu_start,
           "status": status,
           "error": error, "frame_delays_us": notes.get("frame_delays_us")}
    if recorder is not None:
        from spans import chrome_events
        out["layers"] = layers.layer_metrics(recorder, telemetry, notes)
        out["events"] = chrome_events(recorder, pid=0)
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    import repro.cli  # noqa: F401  (the set-up being measured)
    out = {"ready": time.monotonic()}
    if request["mode"] != "import":
        out.update(_run(request))
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
