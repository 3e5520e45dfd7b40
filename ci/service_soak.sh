#!/usr/bin/env bash
# SIGTERM-and-resume soak harness for the long-running measurement agent.
#
# One invocation = one scenario, shaped entirely by the environment
# (ROAM_PARALLEL, ROAM_TRANSPORT, ROAM_FAULTS, ROAM_SERVICE_*):
#
#   1. run roam_agent straight through for the full horizon (no
#      checkpoint plane) as reference;
#   2. run it again with ROAM_CHECKPOINT_DIR set, poll for agent.ckpt,
#      then SIGTERM it — the agent drains the export queue, writes a
#      final checkpoint, and exits 75;
#   3. re-invoke with the same checkpoint dir (the agent auto-resumes,
#      truncating sessions.csv to the durable offset the frame
#      recorded) and `cmp` every artifact against the reference:
#      report.txt, sessions.csv, soak.csv, soak.frame — byte for byte.
#
# If the victim finishes before the signal lands, the scenario degrades
# to resuming a finished directory from its last cadence checkpoint —
# which must *still* reproduce the reference bytes, so the check stays
# meaningful either way; the log line says which variant actually ran.
#
# Usage: ci/service_soak.sh <tag>
#   ROAM_AGENT          path to the roam_agent binary
#                       (default target/release/roam_agent)
#   ROAM_SOAK_DAYS      horizon in sim-days (default 30)
#   ROAM_SERVICE_CKPT   checkpoint cadence in sim-days (default 2 here,
#                       so the signal has a frame to land after)
set -euo pipefail

tag=${1:?usage: ci/service_soak.sh <tag>}
bin=${ROAM_AGENT:-target/release/roam_agent}
days=${ROAM_SOAK_DAYS:-30}
export ROAM_SERVICE_CKPT=${ROAM_SERVICE_CKPT:-2}

work=$(mktemp -d)
ckpt="$work/ckpt"
trap 'rm -rf "$work"' EXIT

# Reference: the uninterrupted run, checkpoint plane off.
env -u ROAM_CHECKPOINT_DIR "$bin" run --sim-days "$days" --out "$work/straight" >/dev/null 2>&1

# Victim: same knobs plus a checkpoint directory. SIGTERM is the
# cooperative path — the agent must drain, checkpoint, and exit 75.
ROAM_CHECKPOINT_DIR="$ckpt" "$bin" run --sim-days "$days" --out "$work/split" \
  >/dev/null 2>"$work/victim.err" &
pid=$!
for _ in $(seq 1 600); do
  test -f "$ckpt/agent.ckpt" && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.02
done
if kill -0 "$pid" 2>/dev/null; then
  kill -TERM "$pid" 2>/dev/null || true
  variant="drained on SIGTERM"
else
  variant="finished before the signal"
fi
rc=0
wait "$pid" || rc=$?
case "$variant/$rc" in
  "drained on SIGTERM/75" | "drained on SIGTERM/0" | "finished before the signal/0") ;;
  *)
    echo "service_soak[$tag]: victim exited $rc ($variant):" >&2
    cat "$work/victim.err" >&2
    exit 1
    ;;
esac

test -f "$ckpt/agent.ckpt" || {
  echo "service_soak[$tag]: no agent.ckpt was written" >&2
  exit 1
}

# Resume: must pick up the schedule mid-flight and land on the
# reference bytes for every artifact.
ROAM_CHECKPOINT_DIR="$ckpt" "$bin" run --sim-days "$days" --out "$work/split" \
  >/dev/null 2>"$work/resumed.err" || {
  echo "service_soak[$tag]: resume refused:" >&2
  cat "$work/resumed.err" >&2
  exit 1
}
for artifact in report.txt sessions.csv soak.csv soak.frame; do
  cmp "$work/straight/$artifact" "$work/split/$artifact" || {
    echo "service_soak[$tag]: $artifact diverged after resume" >&2
    exit 1
  }
done
echo "service_soak[$tag]: ok ($variant, $(wc -l <"$work/split/sessions.csv") session lines)"
