"""``import repro`` loads the campaign path, all of it and nothing else.

Package ``__init__``s re-export only what a campaign runs; the
off-path modules below are imported from where they are defined.  Both
checks run in a fresh interpreter, since this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a campaign never runs; ``import repro`` must not load them.
OFF_PATH = (
    "repro.analysis",
    "repro.bist",
    "repro.static",
    "repro.core.coverage",
    "repro.core.diagnosis",
    "repro.core.sessions",
    "repro.core.validate",
    "repro.isa.assembler",
    "repro.isa.disassembler",
    "repro.soc.hexfile",
    "repro.soc.tracer",
    "repro.xtalk.rc_model",
    "repro.xtalk.waveform",
)


def run_python(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(result.stdout)


def test_import_repro_loads_no_off_path_module():
    loaded = run_python("import json, sys, repro; print(json.dumps(list(sys.modules)))")
    off_path = [
        name for name in loaded
        if any(name == mod or name.startswith(mod + ".") for mod in OFF_PATH)
    ]
    assert off_path == []
    assert "repro.core.campaign" in loaded


def test_campaign_imports_nothing_after_setup():
    # Any import a campaign triggers would be paid inside campaign time.
    new = run_python(
        "import json, sys\n"
        "from repro import (CampaignSpec, SelfTestProgramBuilder,\n"
        "    default_address_bus_setup, default_data_bus_setup, run_campaign)\n"
        "builder = SelfTestProgramBuilder()\n"
        "cases = [(default_data_bus_setup(defect_count=20),\n"
        "          builder.build_data_bus_program(), 'data'),\n"
        "         (default_address_bus_setup(defect_count=20),\n"
        "          builder.build_address_bus_program(), 'addr')]\n"
        "before = set(sys.modules)\n"
        "for setup, program, bus in cases:\n"
        "    run_campaign(CampaignSpec(program, setup.params,\n"
        "        setup.calibration, tuple(setup.library), bus))\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert new == []
