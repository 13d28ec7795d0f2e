#!/usr/bin/env bash
# Where does the benchmark process spend its CPU? Builds the sampler
# (scripts/profile/sampler.c) and the benchmark binary, runs one workload with
# the sampler preloaded, and prints leaf and inclusive symbol shares of the
# measuring process (the one with the most samples; set-up children write their
# own files beside it). Needs gcc, nm and python3; changes nothing under
# benchmark/. Not a CI step: a 2 ms SIGPROF perturbs the latencies it samples.
#
#   scripts/profile.sh <workload> [seed, default 11] [symbolise.py options...]
#   scripts/profile.sh scan_heavy 11 --under 'drop_in_place'
#   scripts/profile.sh scan_heavy 11 --groups     # one table of executor layers,
#                                                 # with samples per query
set -euo pipefail
workload=${1:?usage: scripts/profile.sh <workload> [seed] [symbolise.py options...]}
seed=${2:-11}
shift $(($# < 2 ? $# : 2))
root=$(cd "$(dirname "$0")/.." && pwd)
out=${PIXELS_PROFILE_DIR:-$(mktemp -d)}
mkdir -p "$out"
gcc -O2 -shared -fPIC -o "$out/sampler.so" "$root/scripts/profile/sampler.c"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
(cd "$out" && LD_PRELOAD="$out/sampler.so" PIXELS_PROFILE_DIR="$out" \
    "$root/benchmark/target/release/pixels-benchmark" \
    run --workload "$workload" --seed "$seed" --seconds 15 --trace 0 | tail -n 1 | tee "$out/run.json")
main=$(ls -S "$out"/samples.* | head -n 1)
echo "samples in $out; symbolising $main"
python3 "$root/scripts/profile/symbolise.py" "$main" --run "$out/run.json" "$@"
