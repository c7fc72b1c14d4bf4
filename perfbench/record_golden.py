"""Record the expected exit code and stdout digest of every `cli` variant.

    python3 perfbench/record_golden.py

Run it from the root of the repository after a change that is meant to alter
CLI output; it rewrites perfbench/cli_golden.json.
"""

import harness

harness.require_sources()

import wl_cli  # noqa: E402  (needs the sources on the path)

wl_cli.record()
