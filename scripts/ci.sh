#!/usr/bin/env bash
# The full pre-PR hygiene recipe (see ROADMAP.md): tier-1 verify plus vet,
# formatting, and a race pass over the concurrent evaluation and serving
# paths. Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go vet ./..."
go vet ./...

# The panel kernels have amd64 assembly and pure-Go twins that other
# architectures, pre-AVX2 amd64 CPUs and purego builds run. The purego pass
# runs the twins through the kernel tests and every backend that runs the
# kernels (chip, CMOS baseline, multi-chip) and the grouped fan-out
# (internal/sim) on this host; the arm64 vet
# keeps the non-amd64 wiring compiling (no cross toolchain needed, it works
# offline).
echo "== go test -tags purego (pure-Go kernels)"
go test -tags purego ./internal/snn ./internal/core ./internal/cmosbase ./internal/shard ./internal/sim

echo "== GOARCH=arm64 go vet (pure-Go kernels)"
GOARCH=arm64 go vet ./internal/snn/ ./internal/bitvec/

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race (concurrent paths)"
go test -race \
    ./internal/parallel/ \
    ./internal/snn/ \
    ./internal/event/ \
    ./internal/neurocell/ \
    ./internal/core/ \
    ./internal/cmosbase/ \
    ./internal/fault/ \
    ./internal/mapping/ \
    ./internal/repair/ \
    ./internal/serve/ \
    ./internal/sim/ \
    ./internal/shard/ \
    ./internal/lb/ \
    ./internal/loadgen/

# The sim.Backend contract is the seam every consumer (serve, experiments,
# cmd tools) programs against; an accidental signature change must show up as
# a diff against the committed surface, not as a downstream compile error in
# a later PR.
# The dumps go to private temp files, so two checkouts running ci.sh at once
# cannot overwrite each other's diff input.
sim_surface=$(mktemp)
mapping_surface=$(mktemp)
cost_surface=$(mktemp)
noc_out=$(mktemp)
trap 'rm -f "$sim_surface" "$mapping_surface" "$cost_surface" "$noc_out"' EXIT
echo "== API surface check (internal/sim)"
go doc -all resparc/internal/sim > "$sim_surface"
if ! diff -u scripts/sim_api_surface.golden "$sim_surface"; then
    echo "internal/sim API surface changed; review the diff and refresh with:" >&2
    echo "  go doc -all resparc/internal/sim > scripts/sim_api_surface.golden" >&2
    exit 1
fi

# The mapping.Mapper/Placement contract is the other pinned seam: the
# Placement JSON artifact is consumed by core, shard, serve and resparc-map,
# so its Go surface (and by extension the schema's shape) is golden-checked
# the same way.
echo "== API surface check (internal/mapping)"
go doc -all resparc/internal/mapping > "$mapping_surface"
if ! diff -u scripts/mapping_api_surface.golden "$mapping_surface"; then
    echo "internal/mapping API surface changed; review the diff and refresh with:" >&2
    echo "  go doc -all resparc/internal/mapping > scripts/mapping_api_surface.golden" >&2
    exit 1
fi

# internal/cost is the seam the chip accountant, the multi-chip model and
# the mapper's cost model all call (stage durations, makespan, link, shard
# model), so a change there moves simulator and mapper together; its
# surface is golden-checked the same way.
echo "== API surface check (internal/cost)"
go doc -all resparc/internal/cost > "$cost_surface"
if ! diff -u scripts/cost_api_surface.golden "$cost_surface"; then
    echo "internal/cost API surface changed; review the diff and refresh with:" >&2
    echo "  go doc -all resparc/internal/cost > scripts/cost_api_surface.golden" >&2
    exit 1
fi

# One iteration of the per-layer (alone and grouped) and panel kernel,
# chip accountant, mapper, makespan, multi-chip backend, switch fabric and
# cycle-level NeuroCell benchmarks: nothing is timed or compared, it only
# keeps the benchmark code compiling and running (their fixtures build real
# Fig 10 networks, which plain go test never reaches for benchmarks).
echo "== benchmark smoke (snn layers and panel kernels, chip accountant, mapper, pipeline makespan, multi-chip backend, NeuroCell)"
go test -run '^$' -bench 'Layer$|LayerGroup|Panel|Observe|Plan|LayerMapping|Makespan|MultiClassifyEach|SwitchNet|CycleStep' -benchtime 1x \
    ./internal/snn ./internal/core ./internal/mapping ./internal/shard ./internal/neurocell

# resparc-noc has no tests of its own: its output for the default cell and a
# congested 6x6 cell with one-flit FIFOs must match the committed golden
# byte for byte, so a change to the switch fabric that moves any statistic
# shows up as a diff.
echo "== resparc-noc golden (-sweep; -dim 6 -queuecap 1 -sweep)"
{ go run ./cmd/resparc-noc -sweep; go run ./cmd/resparc-noc -dim 6 -queuecap 1 -sweep; } > "$noc_out"
if ! diff -u scripts/resparc_noc.golden "$noc_out"; then
    echo "resparc-noc output changed; if intended, refresh with:" >&2
    echo "  { go run ./cmd/resparc-noc -sweep; go run ./cmd/resparc-noc -dim 6 -queuecap 1 -sweep; } > scripts/resparc_noc.golden" >&2
    exit 1
fi

echo "== fuzz smoke (FuzzFaultMap, 5s)"
go test -run Fuzz -fuzz=FuzzFaultMap -fuzztime=5s ./internal/fault/

# Perf regression check — fatal: a committed benchmark whose fastest of
# three samples runs more than 10% slower than its previous entry fails the
# build. Timings drift with machine load, so a known-noisy run can be waved
# through explicitly with ALLOW_BENCH_REGRESS=1 (bench_compare.sh then only
# prints the delta table).
echo "== bench compare"
./scripts/bench_compare.sh -quick

echo "ci: all green"
