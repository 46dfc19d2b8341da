"""Set-up a CLI user pays on every call: import skewflow.cli and build the workload's systems.

Run as ``python3 setup_probe.py '<json list of [name, params]>'`` in a fresh
interpreter; run.py times the whole process.
"""

import json
import sys

import skewflow.cli

for name, params in json.loads(sys.argv[1]):
    skewflow.cli.gallery.build(name, params)
