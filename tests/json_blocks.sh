#!/usr/bin/env bash
# Every JSON block the command line prints is what json.dumps(sort_keys=True,
# indent=1) writes for it, and every run ends with its expected exit code.
#
#   bash tests/json_blocks.sh PROBLEMS COMMAND...
#
# runs COMMAND (polyvar once installed, python -m polyvar.cli from the source
# tree) on the bundled examples in the directory PROBLEMS: certify once per
# check of the examples, dir-reg at the zero direction (the standard adjoint
# inclusion, which fails on both examples: exact, so a refutation),
# foscms-joint, and graph-normal in each mode.
set -euo pipefail
problems=$1
shift
same_json='import json, sys; block = sys.stdin.read().split(" JSON ---\n", 1)[1].rstrip("\n"); ok = block == json.dumps(json.loads(block), sort_keys=True, indent=1); print(sys.argv[1], "JSON block as json.dumps writes it:", ok); sys.exit(not ok)'
{
  python -c '
from polyvar.cli import _EXPECTED
for which, checks in _EXPECTED.items():
    for check, status, extra in checks:
        print(int(status != "holds"), "certify", f"ex{which}.json", "--check", check, "--dir=" + extra["dir"] if "dir" in extra else "")
'
  printf '%s\n' "1 certify ex3.json --check dir-reg --dir=0,0;0,0,0,0" "1 certify ex5.json --check dir-reg --dir=0,0;0,0" \
    "0 certify ex5.json --check foscms-joint" "0 graph-normal ex5.json --limiting" "0 graph-normal ex5.json --regular" \
    "0 graph-normal ex5.json --dir=-1,0;0,0"
} | while read -r want command file args; do
  code=0
  out="$("$@" "$command" "$problems/$file" $args)" || code=$?
  test "$code" -eq "$want" || { echo "$command $file $args: exit $code, want $want"; exit 1; }
  printf '%s\n' "$out" | python -c "$same_json" "$command $file $args"
done
