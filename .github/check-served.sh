#!/usr/bin/env bash
# Third-party check of served envelopes:
#   bash .github/check-served.sh PREFIX REG COUNT
#
# PREFIX.<i>.env are the envelopes `zkml submit --count COUNT --out PREFIX`
# wrote (one per batch proof) and REG is the state directory `zkml serve
# --registry REG` published into.  Every envelope must pass `zkml verify`
# and `zkml verify-serve` against REG, fewer than COUNT files means some
# proof covers more than one request, and the widest envelope with one
# public output of its last slot forged must be refused by both.
set -euo pipefail
prefix=$1
registry=$2
count=$3
export PYTHONPATH=src

for env in "$prefix".*.env; do
  python -m repro.cli verify --envelope "$env" --registry "$registry" -q
done

python -c '
import dataclasses, glob, sys
from repro.envelope import decode_envelope
prefix, count = sys.argv[1], int(sys.argv[2])
envs = [decode_envelope(open(f, "rb").read())
        for f in sorted(glob.glob(prefix + ".*.env"))]
assert len(envs) < count, "no served proof covered two requests"
env = max(envs, key=lambda e: len(e.instance))
instance = [list(column) for column in env.instance]
instance[-1][0] += 1  # the last slot
forged = dataclasses.replace(env, instance=instance).encode()
open(prefix + ".forged", "wb").write(forged)
' "$prefix" "$count"

set +e
python -m repro.cli verify --envelope "$prefix.forged" \
  --registry "$registry" -q
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for a forged served envelope, got $rc"
  exit 1
fi

sock="$prefix.verify.sock"
python -m repro.cli verify-serve --socket "$sock" --registry "$registry" \
  --flight-recorder "" -q &
verifier=$!
trap 'kill "$verifier" 2>/dev/null || true; wait "$verifier" || true' EXIT
for _ in $(seq 50); do
  [ -S "$sock" ] && break
  sleep 0.1
done
python -c '
import glob, sys
from repro.serve.client import verify_request
prefix, sock = sys.argv[1:]
served = [open(f, "rb").read() for f in sorted(glob.glob(prefix + ".*.env"))]
forged = open(prefix + ".forged", "rb").read()
report = verify_request(sock, served + [forged])
assert report["accepted"] == len(served), report
assert report["rejected"] == 1, report
assert report["results"][-1]["cause"] == "verify_failed", report
print("%d served envelopes verified by a third party; forged one refused"
      % len(served))
' "$prefix" "$sock"
