#!/usr/bin/env bash
# Local CI gate — run before every commit. Mirrors what a hosted CI
# would run, strictest flags on: docs and lints are errors, not noise.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check (the workspace is rustfmt-clean)"
# nvmbench is its own workspace and is not formatted by this step.
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> cargo test -q (batch conformance: prefix durability at every crash point)"
cargo test -q -p nvm-table --test conformance batch

echo "==> layering lint (no upward dependencies)"
# The crate layering is probe-plan/cell-store toolkit (nvm-table) ->
# schemes (group-hash, nvm-baselines) -> harness (gh-harness). Imports
# must only point down the stack, and probe-plan modules are pure
# geometry — they never touch pmem.
# Comment lines (including doctests in `///` blocks) are exempt: they
# cannot create a compile-time dependency, and doctests legitimately
# drive the trait through a real scheme the same way tests/ do via
# dev-dependencies.
strip_comments() { grep -vE ':[0-9]+:[[:space:]]*//' || true; }
lint_fail=0
if grep -rn "group_hash\|nvm_baselines\|gh_harness" crates/table/src \
    | strip_comments | grep .; then
  echo "layering violation: nvm-table must not import scheme or harness crates" >&2
  lint_fail=1
fi
if grep -rn "gh_harness" crates/core/src crates/baselines/src \
    | strip_comments | grep .; then
  echo "layering violation: scheme crates must not import the harness" >&2
  lint_fail=1
fi
if grep -rn "nvm_pmem" crates/table/src/probe.rs crates/table/src/meta.rs \
    crates/core/src/table/probe.rs \
    | strip_comments | grep .; then
  echo "layering violation: probe-plan/metadata modules must stay I/O-free (found nvm_pmem)" >&2
  lint_fail=1
fi
# Read-path modules (read-only view, probe plans, fingerprint scans, and
# the vectorized batch-probe helpers — Selection / match_bits_many in the
# table toolkit, get_batch resolve + prefetch in the read view) may name
# only the read half of the pool surface (PmemRead); naming the
# write-capable Pmem trait there would let a "read" mutate.
if grep -rnE '\bPmem\b' \
    crates/core/src/table/readview.rs crates/core/src/table/probe.rs \
    crates/core/src/fpcache.rs crates/table/src/probe.rs crates/table/src/meta.rs \
    | strip_comments | grep .; then
  echo "layering violation: read-path modules must not name the write-capable pmem trait" >&2
  lint_fail=1
fi
# The batch read pipeline must stay free of persistence verbs end to end
# (get_batch = 0 flushes / 0 fences / 0 atomic writes — pinned by
# tests/concurrent_stress.rs): prefetch is the only pool verb the batch
# helpers may add, and only through the read handle.
if grep -nE '\.flush\(|\.fence\(|\.atomic_write' crates/core/src/table/readview.rs \
    | strip_comments | grep .; then
  echo "layering violation: the read view must not issue persistence verbs" >&2
  lint_fail=1
fi
# The value-heap stack layers the same way: the size-class/layout layer
# (classes.rs) is pure geometry and never touches pmem, and the KV
# engine talks only to the heap policy layer — reaching past it into
# the slab store or its bitmaps would bypass the wear rotation and the
# GC bookkeeping.
if grep -rnH "nvm_pmem" crates/alloc/src/classes.rs \
    | strip_comments | grep .; then
  echo "layering violation: the size-class layer (classes.rs) must stay pmem-free" >&2
  lint_fail=1
fi
if grep -rnHE 'SlabStore|PmemBitmap|try_alloc_in|\balloc_in\b|locate_flat' crates/kv/src \
    | strip_comments | grep .; then
  echo "layering violation: kv must go through the heap policy layer, not slab-store internals" >&2
  lint_fail=1
fi
# The network front door codes against the Store facade only. If the
# server needs something the facade doesn't expose, the facade grows —
# the server never reaches into the index/heap/scheme layers. (nvm_pmem
# is allowed: supplying backing pools is construction-time plumbing the
# facade deliberately leaves to the caller.)
if grep -rnE 'group_hash|nvm_table|nvm_alloc|nvm_core|nvm_hashfn|nvm_wal|nvm_baselines|nvm_cachesim' \
    crates/server/src \
    | strip_comments | grep .; then
  echo "layering violation: nvm-server must code against the nvm-kv Store facade only" >&2
  lint_fail=1
fi
[ "$lint_fail" -eq 0 ]

echo "==> error-type lint (no stringly-typed public Results)"
# The batched-API redesign retired Result<_, String> from every public
# surface; table/core/baselines/kv/alloc fail typed (TableError/
# InsertError/BatchError/KvError/AllocError) or not at all.
if grep -rn "Result<[^>]*, String>" \
    crates/table/src crates/core/src crates/baselines/src crates/kv/src \
    crates/alloc/src; then
  echo "error-type violation: public APIs must use typed errors, not Result<_, String>" >&2
  exit 1
fi

echo "==> concurrency stress tests"
cargo test -q --test concurrent_stress

echo "==> concurrency stress tests (release, elevated iterations)"
# The writer stress tests scale with NVM_STRESS_ITERS; the release run
# gives the shard-latch/seqlock/expansion machinery real iteration counts
# that would be too slow under the debug profile.
NVM_STRESS_ITERS=20000 cargo test --release -q --test concurrent_stress -- \
  single_shard_cas_contention_loses_no_writes expansion_mid_stream_keeps_every_write

echo "==> occupancy-commit lint (the cell store owns every bit flip)"
# The commit protocol is only sound if every occupancy-bit mutation in
# the scheme's hot path goes through the cell store's publish/retract or
# a BatchSession commit — those are the sole callers of the bitmap
# mutators. Direct bitmap writes from the core table/concurrent layers
# would bypass the commit choreography. (crates/core/src/bulk.rs is the
# documented exception: bulk load commits whole precomputed words while
# holding the table exclusively.)
if grep -rnE 'set_and_persist|set_volatile|cas_bit_and_persist|atomic_write[^(]*word_off' \
    crates/core/src/table crates/core/src/concurrent.rs \
    crates/core/src/fpcache.rs \
    | strip_comments | grep .; then
  echo "occupancy lint: core scheme paths must commit occupancy via the cell store" >&2
  exit 1
fi

echo "==> iceberg stability lint (entries never move after insert)"
# The iceberg scheme's whole crash argument rests on stability: no
# displacement, no backward shift, no direct occupancy-bit mutation —
# every commit goes through BatchSession::stage_publish/stage_retract/
# commit. A displacement helper or raw bitmap verb appearing in
# iceberg.rs means the stability guarantee (and the bare-mode
# crash-safety it buys) silently broke.
if grep -rnE 'set_and_persist|set_volatile|cas_bit_and_persist|backward_shift|evict_to|fn displace|\.displace\(' \
    crates/baselines/src/iceberg.rs \
    | strip_comments | grep .; then
  echo "stability lint: iceberg.rs must not move entries or touch occupancy bits directly" >&2
  exit 1
fi
# The only displacement iceberg may ever record is the literal zero
# (stability's instrumentation signature).
if grep -n 'record_displacement(' crates/baselines/src/iceberg.rs \
    | grep -v 'record_displacement(0)' | grep .; then
  echo "stability lint: iceberg.rs recorded a non-zero displacement" >&2
  exit 1
fi

echo "==> online-expansion shape lint"
# ShardedGroupHash's grow_shard/expand_step drain is the one growth path.
# It must stay incremental: drain through the bounded migration cursor
# (migrate_step), never by re-inserting a full table scan
# (for_each_entry = a stop-the-world rebuild), and keep the bounded
# drainer (expand_step) public.
if grep -q "for_each_entry" crates/core/src/concurrent.rs; then
  echo "expansion lint: concurrent.rs regressed to a stop-the-world rebuild" >&2
  exit 1
fi
for helper in migrate_step expand_step; do
  grep -q "$helper" crates/core/src/concurrent.rs || {
    echo "expansion lint: concurrent.rs lost $helper" >&2
    exit 1
  }
done

echo "==> one-mechanism lint (no second growth path, commit family, write path, KV API, build, group layout, count or lookup)"
# One growth path (expand_step), one commit family (CellStore/
# BatchSession without tag-carrying twins), one write path per shard
# (the shard latch + seqlock; no lock-free CAS writer family), one public
# KV entry point (Store), one build of every scheme (recording is
# unconditional; no cargo feature switches it), one group layout
# (contiguous level-2 cells) and one persistent count. Volatile tags
# splice at stage time; they never need their own commit entry points.
if grep -rnE 'fn [a-z_]+_tagged\b|expand_into|ResizingGroupHash|migrate_into|#\[deprecated' \
    crates/ | grep .; then
  echo "mechanism lint: a removed growth path, _tagged commit or deprecated shim came back" >&2
  exit 1
fi
if grep -rnE 'try_publish|try_retract|try_insert_shared|try_remove_shared|CellClaims|TableClaims|try_alloc_in|_count_shared|_entry_shared' \
    crates/ | grep .; then
  echo "mechanism lint: the removed CAS shared-writer family came back" >&2
  exit 1
fi
if grep -rnE 'feature = "instrument"|instrument = \[' crates/ Cargo.toml | grep .; then
  echo "mechanism lint: the removed instrument feature came back" >&2
  exit 1
fi
if grep -rnE 'ProbeLayout|CountMode|volatile_count|with_probe\(|with_count_mode' crates/ | grep .; then
  echo "mechanism lint: the removed strided-layout or volatile-count knob came back" >&2
  exit 1
fi
# One lookup machine: Algorithm 2's steps (level-1 check, group scan
# and its occupancy-word walk, level-1/group prefetch, tag match) are
# defined once under crates/core/src/table/, in the read view, and the
# table runs them with its tag cache and recorder. A second definition
# is a second lookup to keep consistent with the first.
for step in 'fn prefetch_group\b' 'fn prefetch_level1\b' 'fn level1_holds\b' \
    'fn find_key_in_group\b' 'fn find_in_group\b' 'fn group_words\b' 'match_bits\('; do
  files=$( { grep -rnE "$step" crates/core/src/table/ || true; } | strip_comments | cut -d: -f1 | sort -u)
  if [ "$(printf '%s' "$files" | grep -c .)" -gt 1 ]; then
    echo "mechanism lint: '$step' appears in more than one file under crates/core/src/table/:" >&2
    echo "$files" >&2
    exit 1
  fi
done

echo "==> server loopback smoke test (ephemeral port, scripted session, clean shutdown)"
# Boots the real TCP server over a Store on 127.0.0.1:0, runs a scripted
# set/get/multi-get/gets/delete/stats/quit session, and requires every
# thread to join on shutdown.
cargo test -q -p nvm-server --test smoke

echo "==> nvmbench builds (separate package outside the workspace)"
# nvmbench uses the crates' public names; a deletion here must not
# break it.
cargo build --release --offline --manifest-path nvmbench/Cargo.toml

echo "==> nvmbench tests (unit tests + end-to-end smoke run with its reply oracle)"
# The smoke run serves every workload over loopback and checks each
# returned value's id, version and checksum, so a record-format change
# that corrupts values fails here.
cargo test --release --offline --manifest-path nvmbench/Cargo.toml

echo "==> cargo bench --no-run (benches must compile)"
cargo bench --no-run --workspace

echo "==> cargo test --doc (runnable examples in rustdoc)"
cargo test -q --doc --workspace

echo "==> docs gate: every results/*.{csv,json,txt} cited in EXPERIMENTS.md or DESIGN.md exists"
docs_fail=0
for f in $(grep -ohE 'results/[A-Za-z0-9_.-]+\.(csv|json|txt)' EXPERIMENTS.md DESIGN.md | sort -u); do
  if [ ! -f "$f" ]; then
    echo "EXPERIMENTS.md or DESIGN.md cites $f but it is not checked in" >&2
    docs_fail=1
  fi
done
[ "$docs_fail" -eq 0 ]

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci.sh: all green"
