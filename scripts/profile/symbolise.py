#!/usr/bin/env python3
"""Symbol shares from a samples.<pid> file written by sampler.so.

    symbolise.py samples.1234 [--top 25] [--under REGEX] [--groups] [--run run.json]

Prints the share of samples whose innermost frame (leaf) is each symbol, and
the share with each symbol anywhere on the stack (inclusive). With --under,
only samples with a frame matching REGEX are counted, and the header says what
share of all samples they are. With --groups, prints instead one table of the
executor's layers (GROUPS below): the share of samples with a frame of the
layer anywhere on the stack, or for the libc rows as the leaf. Rows overlap
(a filter inside a decode counts in both), so they do not sum to 100 %. With
--run (the benchmark run's last stdout line, which profile.sh saves), each
row also gives its samples per attempted query: a layer's share shrinks when
another layer grows, its samples per query only when it does less work.
Symbols come from `nm -C` on each mapped file;
needs nothing else. A stripped library (the usual glibc) only has its exported
symbols, so an address inside it is named `~<nearest export below it>`: glibc's
malloc internals read as `~__default_morecore`, its AVX mem* routines as
`~__nss_database_lookup`.
"""
import argparse
import bisect
import collections
import json
import re
import subprocess


# (layer, regex, leaf only[, under]). One row each in the --groups table. A
# row with `under` counts only samples that also have a frame matching it.
GROUPS = [
    ("expression evaluation", r"pixels_exec::evaluate::|pixels_planner::eval::|pixels_exec::scalar::(evaluate|predicate_mask)", False),
    ("  of which under evaluate()", r"pixels_exec::evaluate::evaluate(_ref|_columnar)?$", False),
    ("  of which row loop", r"pixels_planner::eval::", False),
    ("keys: encode, intern, lookup", r"pixels_exec::keys::", False),
    ("  of which encode", r"pixels_exec::keys::(KeyEncoder|put_column)", False),
    ("chunk decode", r"pixels_storage::(encoding::|encoded::EncodedChunk)", False),
    ("  of which plain::decode", r"pixels_storage::encoding::plain::", False),
    ("  of which RLE runs: parse + expand", r"pixels_storage::(encoded::EncodedChunk::(rle_runs|expand_runs|decode_filtered::expand)|encoding::rle::decode)", False),
    ("filter/compaction", r"pixels_common::(column::Column|batch::RecordBatch)::(filter|gather)", False),
    # The update loops are the leaf: inlined into `build_partial` before the
    # accumulators, `State::update` and the rows count since.
    ("accumulator update (leaf)", r"^pixels_exec::(aggregate::(build_partial|update_agg_column|State::|Accumulators::|AggState::)|encoded::(fold|try_fold))", True),
    ("group keys: intern, gather", r"pixels_exec::keys::|pixels_exec::aggregate::GroupKeys|pixels_common::column::Column::(gather|concat|value)$", False, r"pixels_exec::aggregate::(build_partial|merge_partial)"),
    ("join", r"pixels_exec::join::", False),
    ("join key filter, in the probe scan", r"pixels_exec::encoded::key_filter_|pixels_exec::keys::KeyFilter", False),
    ("allocator (leaf)", r"^~?(__default_morecore|malloc|free|realloc|calloc|cfree|_int_malloc|_int_free)", True),
    ("mem* (leaf)", r"^~?(__nss_database_lookup|mem(cpy|move|set|cmp)|bcmp)", True),
]


def symbols(path):
    """Sorted [(address, name)] of the defined symbols of an ELF file."""
    for flags, mark in ((["-C"], ""), (["-C", "-D"], "~")):
        out = subprocess.run(["nm", *flags, "--defined-only", path],
                             capture_output=True, text=True).stdout
        table = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWiu":
                table.append((int(parts[0], 16), mark + parts[2].split("@")[0]))
        if table:
            return sorted(table)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--under", help="count only stacks with a frame matching this regex")
    ap.add_argument("--groups", action="store_true", help="one table of layer shares (see GROUPS)")
    ap.add_argument("--run", help="the run's result line (JSON with `attempted`): adds samples per query to --groups")
    args = ap.parse_args()

    text = open(args.samples).read()
    stacks_text, _, maps_text = text.partition("MAPS\n")
    # Executable mappings, and each file's load base (its lowest mapping).
    maps, base = [], {}
    for line in maps_text.splitlines():
        f = line.split()
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        base[f[5]] = min(base.get(f[5], lo), lo)
        if "x" in f[1]:
            maps.append((lo, hi, f[5]))
    maps.sort()
    tables = {}

    def name(addr):
        i = bisect.bisect_right(maps, (addr, float("inf"), "")) - 1
        if i < 0 or not maps[i][0] <= addr < maps[i][1]:
            return "[unmapped]"
        path = maps[i][2]
        if path not in tables:
            tables[path] = symbols(path)
        table = tables[path]
        # A return address points after the call: look up the byte before it.
        j = bisect.bisect_right(table, (addr - base[path] - 1, chr(0x10ffff))) - 1
        return table[j][1] if j >= 0 else "[" + path.rsplit("/", 1)[-1] + "]"

    stacks = [[name(int(a, 16)) for a in line.split()] for line in stacks_text.splitlines()]
    stacks = [s for s in stacks if s]
    total = len(stacks)
    if args.under:
        pat = re.compile(args.under)
        stacks = [s for s in stacks if any(pat.search(f) for f in s)]
        print(f"{len(stacks)} of {total} samples ({100 * len(stacks) / max(total, 1):.1f} %) "
              f"have a frame matching /{args.under}/")
    else:
        print(f"{total} samples (one per 2 ms of process CPU time)")
    if args.groups:
        queries = json.load(open(args.run))["attempted"] if args.run else None
        per_query = f", samples per query over {queries} queries" if queries else ""
        print(f"\n-- layers: share of all {total} samples{per_query} (rows overlap) --")
        for layer, regex, leaf_only, *under in GROUPS:
            pat = re.compile(regex)
            within = [re.compile(u) for u in under]
            n = sum(1 for s in stacks
                    if any(pat.search(f) for f in (s[:1] if leaf_only else s))
                    and all(any(w.search(f) for f in s) for w in within))
            rate = f"  {n / queries:6.3f}/q" if queries else ""
            print(f"{100 * n / max(total, 1):6.2f} %  {n:7d}{rate}  {layer}")
        if queries:
            print(f"{100.0:6.2f} %  {total:7d}  {total / queries:6.3f}/q  all samples")
        return
    leaf = collections.Counter(s[0] for s in stacks)
    incl = collections.Counter(f for s in stacks for f in set(s))
    for title, counts in (("leaf", leaf), ("inclusive", incl)):
        print(f"\n-- {title}: share of all {total} samples --")
        for sym, n in counts.most_common(args.top):
            print(f"{100 * n / max(total, 1):6.2f} %  {n:7d}  {sym[:150]}")


if __name__ == "__main__":
    main()
