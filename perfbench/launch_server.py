"""Start ``repro serve`` with the benchmark's instrumentation installed.

    python3 perfbench/launch_server.py --spans OUT.json -- serve ARGS...
    python3 perfbench/launch_server.py --profile OUT.json -- serve ARGS...

``--spans`` installs the span wrappers of :mod:`spans` and writes the
spans to ``OUT.json`` when the server stops (SIGINT).  ``--profile``
runs cProfile around every request handler, except requests carrying
the benchmark's set-up header, and writes the self time per ``repro``
package.  Either way the server itself is started by
``repro.cli.main(["serve", ...])``, exactly as the command line would.
Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import threading

from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def _profile_requests(app):
    """Profile each request's handler thread; returns the profile."""
    profile = cProfile.Profile()
    lock = threading.Lock()
    original = app._Handler._run

    def _run(handler, method):
        if handler.headers.get(spans.SETUP_HEADER):
            return original(handler, method)
        with lock:
            profile.enable()
            try:
                return original(handler, method)
            finally:
                profile.disable()

    app._Handler._run = _run
    return profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spans", metavar="OUT")
    mode.add_argument("--profile", metavar="OUT")
    parser.add_argument("serve", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve = args.serve[1:] if args.serve[:1] == ["--"] else args.serve

    from repro import cli
    from repro.server import app

    tracer = spans.Tracer().install() if args.spans else None
    profile = _profile_requests(app) if args.profile else None
    try:
        return cli.main(serve)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.spans)
        if profile is not None:
            with open(args.profile, "w", encoding="utf-8") as fp:
                json.dump(spans.package_self_seconds(profile), fp)


if __name__ == "__main__":
    sys.exit(main())
