"""Fresh-interpreter probes, started as child processes by run.py.

    python3 perfbench/probe.py setup CONFIG [CPF]
        import gravlink, load CONFIG and parse CPF; print {"setup_s": ...}
    python3 perfbench/probe.py run CONFIG [CPF]
        the same set-up, then one ``gravlink run CONFIG``; print
        {"setup_s": ..., "exit": ..., "peak_rss_mib": ...}

The child finds gravlink through PYTHONPATH, which run.py sets, and
prints one JSON line on stdout; the program's own output goes to stderr.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time


def setup(config: str, cpf: str | None) -> float:
    start = time.perf_counter()
    import gravlink  # noqa: F401
    from gravlink.config import load_config

    load_config(config)
    if cpf is not None:
        from gravlink.ephemeris import parse_cpf

        with open(cpf, encoding="utf-8") as fh:
            parse_cpf(fh.read())
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    mode, config, cpf = argv[0], argv[1], argv[2] if len(argv) > 2 else None
    result = {"setup_s": setup(config, cpf)}
    if mode == "run":
        from gravlink import cli

        with contextlib.redirect_stdout(sys.stderr):
            result["exit"] = cli.main(["run", config])
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
