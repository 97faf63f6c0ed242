"""Write perfbench/golden/cli.json: the exit code and --json output of every
cli-bundled command. The stored file holds the outputs of the code the
benchmark was defined on; regenerate it only when an output change is
intended.

Run from the repository root: python3 perfbench/make_golden.py
"""

import json

from run import ROOT, prepare

prepare()
from bench_workloads import CLI_COMMANDS, GOLDEN_CLI, run_cli  # noqa: E402

golden = {}
for name, argv in CLI_COMMANDS.items():
    code, stdout = run_cli(argv)
    golden[name] = {"argv": argv, "exit_code": code, "output": json.loads(stdout)}
GOLDEN_CLI.parent.mkdir(exist_ok=True)
GOLDEN_CLI.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
print(f"wrote {len(golden)} commands to {GOLDEN_CLI.relative_to(ROOT)}")
