"""One set-up measurement in a fresh interpreter.

Reads {"src", "kind", "config"} as JSON on stdin, then times importing
homcrb, validating the config and building the workload's model through
its public constructor. Then runs the speed reference on the same core
for half as long, and prints {"setup_s", "unit_s"} as JSON.
"""

import json
import sys
import time

spec = json.loads(sys.stdin.read())
sys.path.insert(0, spec["src"])

start = time.perf_counter()
import homcrb.harness  # noqa: E402
from homcrb import models  # noqa: E402

from workloads import build_model  # noqa: E402  (numpy is loaded by now)

build_model(models, spec["kind"], homcrb.harness.load_config(spec["config"]))
elapsed = time.perf_counter() - start

from reference import unit_seconds  # noqa: E402

print(json.dumps({"setup_s": elapsed, "unit_s": unit_seconds(0.5 * elapsed)}))
