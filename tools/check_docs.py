#!/usr/bin/env python3
"""Docs-coverage gate: every exported wfit_* metric family must be
documented, and every family the docs name must still be exported.

Scans the metric emitters under src/ for the Prometheus families they
export — both fully spelled literals ("# HELP wfit_node_config_version
...") and spliced ones (Counter(os, "statements_analyzed_total", ...)
inside a helper whose body stamps the "wfit_service_" prefix) — and fails
if any family name is absent from the operator docs (docs/*.md, README.md).
It also fails if a family named under docs/ (wfit_service_*,
wfit_router_*, wfit_tenant_*, wfit_node_*; a histogram's _bucket/_sum/
_count series count as its family) is exported by no emitter.

An alerting runbook that lags the code is worse than none: a family that
ships undocumented is invisible to the operator reading OPERATIONS.md, and
a documented family that no longer ships sends them after a dead series.

It also holds docs/DURABILITY.md to the persist/ code it specifies: the
journal record table must list exactly the JournalRecordType values of
src/persist/journal.h (same numbers, same names), and the snapshot
header table's "version (currently N)" must equal kSnapshotVersion in
src/persist/snapshot.h. A format spec that lags a version bump or a
record type is how older-build state gets misread.

Usage: check_docs.py [repo_root]
"""

import os
import re
import sys

# Files that emit Prometheus text. Extend when a new export surface
# appears (the scan below also reports stray prefixes it cannot resolve).
EMITTER_FILES = [
    "src/service/metrics.cc",
    "src/service/tenant_router.cc",
    "src/cluster/node.cc",
]

DOC_FILES_GLOB = ["docs", "README.md"]

PREFIX_RE = re.compile(r'"(?:# (?:HELP|TYPE) )?(wfit_[a-z0-9_]*_)"')
FULL_NAME_RE = re.compile(r'"(?:# (?:HELP|TYPE) )?(wfit_[a-z0-9_]*[a-z0-9])[ "{]')
HELPER_DEF_RE = re.compile(r"^\s*(?:template.*\n)?\s*void (\w+)\(", re.M)
LAMBDA_DEF_RE = re.compile(r"^\s*auto (\w+) = \[", re.M)
CALL_RE_TMPL = r'\b%s\(\s*[^");]*?"([a-z][a-z0-9_]*)"'
# Family names as the docs write them. A trailing "_" or "*" marks a
# prefix or a wildcard, not a family.
DOC_FAMILY_RE = re.compile(r"\b(wfit_(?:service|router|tenant|node)_"
                           r"[a-z0-9_]*[a-z0-9])(?![a-z0-9_*])")
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def body_after(text, start, lines=16):
    """The next `lines` lines after offset `start` — an approximation of a
    small function/lambda body, enough to find the prefix it stamps."""
    end = start
    for _ in range(lines):
        nl = text.find("\n", end + 1)
        if nl < 0:
            return text[start:]
        end = nl
    return text[start:end]


def emitter_prefixes(text):
    """Map helper/lambda name -> wfit_* prefix it splices before `name`."""
    prefixes = {}
    for m in HELPER_DEF_RE.finditer(text):
        body = body_after(text, m.start())
        pm = PREFIX_RE.search(body)
        if pm and "<< name" in body:
            prefixes[m.group(1)] = pm.group(1)
    # One level of indirection: lambdas that forward to a known helper
    # (e.g. `auto counter = [&](const char* name, ...) { TenantFamily(...`).
    for m in LAMBDA_DEF_RE.finditer(text):
        body = body_after(text, m.start())
        for helper, prefix in list(prefixes.items()):
            if helper + "(" in body:
                prefixes[m.group(1)] = prefix
                break
    return prefixes


def families_in(path):
    with open(path) as f:
        text = f.read()
    found = set()
    # Fully spelled family names (raw `os << "# HELP wfit_..."` blocks).
    for m in FULL_NAME_RE.finditer(text):
        found.add(m.group(1))
    # Spliced names: helper calls whose first string literal is the family
    # name minus the prefix the helper stamps.
    for helper, prefix in emitter_prefixes(text).items():
        for m in re.finditer(CALL_RE_TMPL % re.escape(helper), text):
            # A call may pass `name` as a variable (wrapper forwarding), in
            # which case the first literal is the TYPE string, not a name.
            if m.group(1) not in ("counter", "gauge", "histogram"):
                found.add(prefix + m.group(1))
    return found


def doc_text(root, entries=DOC_FILES_GLOB):
    chunks = []
    for entry in entries:
        path = os.path.join(root, entry)
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".md"):
                    with open(os.path.join(path, name)) as f:
                        chunks.append(f.read())
        elif os.path.isfile(path):
            with open(path) as f:
                chunks.append(f.read())
    return "\n".join(chunks)


def stale_doc_families(families, docs):
    """Families the docs name that no emitter exports."""
    stale = set()
    for name in DOC_FAMILY_RE.findall(docs):
        if name in families:
            continue
        if any(name.endswith(suffix) and name[:-len(suffix)] in families
               for suffix in HISTOGRAM_SUFFIXES):
            continue
        stale.add(name)
    return sorted(stale)


def read(root, rel):
    path = os.path.join(root, rel)
    if not os.path.isfile(path):
        sys.exit(f"check_docs: file missing: {rel}")
    with open(path) as f:
        return f.read()


def durability_drift(root):
    """Mismatches between docs/DURABILITY.md and the persist/ headers."""
    errors = []
    durability = read(root, "docs/DURABILITY.md")

    journal_h = read(root, "src/persist/journal.h")
    enum = re.search(r"enum class JournalRecordType[^{]*\{(.*?)\};",
                     journal_h, re.S)
    if not enum:
        return ["no JournalRecordType enum in src/persist/journal.h"]
    # kCompactionBase = 5 -> (5, "compaction base")
    code = {(int(num), re.sub(r"(?<!^)([A-Z])", r" \1", name).lower())
            for name, num in re.findall(r"\bk(\w+) = (\d+)", enum.group(1))}
    section = re.search(r"^## Write-ahead journal.*?(?=^##? )", durability,
                        re.S | re.M)
    rows = re.findall(r"^\| (\d+) \| ([^|]+?) \|",
                      section.group(0) if section else "", re.M)
    documented = {(int(num), name.strip()) for num, name in rows}
    for num, name in sorted(code - documented):
        errors.append(f"journal record type {num} ({name}) missing from "
                      "the DURABILITY.md record table")
    for num, name in sorted(documented - code):
        errors.append(f"DURABILITY.md lists journal record type {num} "
                      f"({name}), which JournalRecordType does not define")

    snapshot_h = read(root, "src/persist/snapshot.h")
    version = re.search(r"kSnapshotVersion = (\d+);", snapshot_h)
    documented_version = re.search(r"\| version \(currently (\d+)\) \|",
                                   durability)
    if not version or not documented_version:
        errors.append("snapshot version not found in snapshot.h or in the "
                      "DURABILITY.md header table")
    elif version.group(1) != documented_version.group(1):
        errors.append(f"DURABILITY.md says snapshot version "
                      f"{documented_version.group(1)}, kSnapshotVersion is "
                      f"{version.group(1)}")
    return errors


def main(argv):
    root = argv[1] if len(argv) > 1 else "."
    families = set()
    for rel in EMITTER_FILES:
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            sys.exit(f"check_docs: emitter file missing: {rel}")
        families |= families_in(path)
    if not families:
        sys.exit("check_docs: no families extracted — emitter idiom changed?")

    docs = doc_text(root)
    missing = sorted(f for f in families if f not in docs)
    stale = stale_doc_families(families, doc_text(root, ["docs"]))
    drift = durability_drift(root)
    print(f"check_docs: {len(families)} exported metric families")
    for name in missing:
        print(f"  UNDOCUMENTED  {name}")
    for name in stale:
        print(f"  NOT EXPORTED  {name}")
    for error in drift:
        print(f"  FORMAT DRIFT  {error}")
    if missing or stale:
        print(f"\nFAILED: {len(missing)} families missing from docs/, "
              f"{len(stale)} documented families no emitter exports — "
              "update docs/OPERATIONS.md")
    if drift:
        print(f"\nFAILED: docs/DURABILITY.md disagrees with src/persist/ "
              f"in {len(drift)} place(s)")
    if missing or stale or drift:
        return 1
    print("PASS: every family documented, every documented family "
          "exported, DURABILITY.md matches the persist/ formats")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
