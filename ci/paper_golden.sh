#!/usr/bin/env bash
# Golden digests for the traceroute-driven paper figures.
#
# Builds and runs table2_tomography, fig06/fig07/fig10/fig12,
# table4_device_campaign and val_emnify twice each: with the default
# configuration, and with ROAM_FAULTS=heavy ROAM_TELEMETRY=jsonl (degraded
# run, event stream and telemetry summary appended to stdout). The sha256
# of every stdout is compared against ci/paper_digests.txt.
#
# Table 2, the figures and Table 4 print RTTs and telemetry, so their
# digests pin draw order, RTT bits and counters. val_emnify prints only a
# traceroute count and a correct/total tally: its two lines pin the
# demarcation verdicts and that the validation still holds (it panics on
# a miss) under heavy faults, not RTT or telemetry bytes.
#
# Usage: ci/paper_golden.sh
# On a mismatch, `diff -u` prints the new lines; paste them into
# ci/paper_digests.txt when a change to the output is intended.
set -euo pipefail

cd "$(dirname "$0")/.."
digests=ci/paper_digests.txt
bins=(table2_tomography fig06_unique_asns fig07_private_path fig10_public_path
      fig12_private_share table4_device_campaign val_emnify)

args=()
for b in "${bins[@]}"; do args+=(--bin "$b"); done
cargo build -q --release --offline -p roam-bench "${args[@]}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run <bin> <label> [VAR=value...]: hash the binary's stdout into
# $tmp/digests; on failure, show its stderr and stop.
run() {
  local b=$1 label=$2
  shift 2
  if ! env -u ROAM_FAULTS -u ROAM_TELEMETRY -u ROAM_PARALLEL -u ROAM_TRANSPORT "$@" \
      "target/release/$b" > "$tmp/stdout" 2> "$tmp/stderr"; then
    cat "$tmp/stderr" >&2
    echo "paper golden: $b ($label) failed" >&2
    exit 1
  fi
  echo "$(sha256sum < "$tmp/stdout" | cut -d' ' -f1)  $b $label" >> "$tmp/digests"
}

for b in "${bins[@]}"; do
  run "$b" default
  run "$b" heavy-jsonl ROAM_FAULTS=heavy ROAM_TELEMETRY=jsonl
done

if diff -u "$digests" "$tmp/digests"; then
  echo "paper golden: all $(wc -l < "$tmp/digests") digests match"
else
  echo "paper golden: digests differ from $digests" >&2
  exit 1
fi
