#!/usr/bin/env python3
"""doc_check: keep the paper-reproduction book honest.

Runs as the `docs_check` ctest. Five passes over the prose docs
(README.md, DESIGN.md, tools/README.md, docs/ARCHITECTURE.md,
docs/TUTORIAL.md):

1. Every fenced ```casm block must assemble and lint clean via casc_lint —
   a doc example that rots fails CI, same as a unit test.
2. Every `--flag` the docs mention must exist: either parsed by some tool
   (scanned from Get*/Has("name") calls and literal "--name" strings in
   tools/, bench/, and examples/ sources), printed by `casc_run --help`,
   or on the short external allowlist (ctest/cmake flags we don't own).
3. Every `build/...` path and repo-relative source path (src/, tools/,
   tests/, bench/, examples/, docs/) the docs mention must exist on disk;
   glob patterns and placeholders are skipped.
4. Every DESIGN.md section reference — a lettered `§4i`-style id anywhere,
   or a plain `DESIGN.md §N` — must name a real `## N.`/`## 4x.` heading in
   DESIGN.md. (Bare numeric `§N` without the DESIGN.md prefix is left
   alone: those cite the source paper.)
5. Every `kName` constant DESIGN.md §5 cites must be defined as a
   `constexpr` under src/. That table is the one list of the model's fixed
   parameters, so a renamed or deleted constant must not leave it stale.

Usage:
  doc_check.py --root=<repo> --build=<builddir> --lint=<casc_lint> \
               --run=<casc_run> [--scratch=<dir>]

Exit 0 when every check passes; 1 with one line per violation otherwise.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

DOC_FILES = [
    "README.md",
    "DESIGN.md",
    os.path.join("tools", "README.md"),
    os.path.join("docs", "ARCHITECTURE.md"),
    os.path.join("docs", "TUTORIAL.md"),
]

# Directories whose sources are scanned for flags the tools actually parse.
FLAG_SOURCE_DIRS = ["tools", "bench", "examples", "reqbench"]

# Flags owned by external tools (ctest, cmake) or used as placeholders in
# prose; everything else mentioned in the docs must exist in our sources.
EXTERNAL_FLAGS = {
    "test-dir",            # ctest
    "output-on-failure",   # ctest
    "build",               # cmake --build
    "flag",                # prose placeholder ("every --flag ...")
}

FLAG_RE = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")
GETTER_RE = re.compile(r'(?:Get(?:Bool|Int|Uint|Double|String)|Has)\s*\(\s*"([a-z][a-z0-9-]*)"')
LITERAL_FLAG_RE = re.compile(r"--([a-z][a-z0-9-]*)")
PATH_RE = re.compile(r"(?<![\w/-])((?:build|src|tools|tests|bench|examples|docs)/[A-Za-z0-9_./*-]+)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
# DESIGN.md subsection headings look like `## 4i. Title` (top-level: `## 5.`).
HEADING_RE = re.compile(r"^## (\d+[a-z]?)\.", re.MULTILINE)
# A lettered id (§4i) can only be a DESIGN.md subsection; a bare numeric §N
# is a paper citation unless explicitly prefixed with "DESIGN.md".
LETTERED_REF_RE = re.compile(r"§(\d+[a-z])\b")
PREFIXED_REF_RE = re.compile(r"DESIGN\.md §(\d+[a-z]?)\b")
# A model constant cited in a code span (`kDramLatency`), and its definition.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
CONST_NAME_RE = re.compile(r"\bk[A-Z][A-Za-z0-9]*\b")
CONST_DEF_RE = re.compile(r"\bconstexpr\b[^;=(]*\b(k[A-Z][A-Za-z0-9]*)\s*=")

errors = []


def fail(doc, line_no, msg):
    errors.append(f"{doc}:{line_no}: {msg}")


def extract_fenced_blocks(text):
    """Yields (info_string, start_line, block_lines) for every fenced block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = FENCE_RE.match(lines[i])
        if m:
            info = m.group(1)
            start = i + 1
            block = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                block.append(lines[i])
                i += 1
            yield info, start + 1, block
        i += 1


def check_casm_blocks(doc, text, lint_bin, scratch):
    for idx, (info, line_no, block) in enumerate(extract_fenced_blocks(text)):
        if info != "casm":
            continue
        path = os.path.join(scratch, f"{os.path.basename(doc)}.block{idx}.casm")
        with open(path, "w") as f:
            f.write("\n".join(block) + "\n")
        r = subprocess.run([lint_bin, path], capture_output=True, text=True)
        if r.returncode != 0:
            detail = (r.stdout + r.stderr).strip().splitlines()
            first = detail[0] if detail else "no diagnostic output"
            fail(doc, line_no, f"casm block fails casc_lint: {first}")


def known_flags(root, run_bin):
    flags = set(EXTERNAL_FLAGS)
    for d in FLAG_SOURCE_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, files in os.walk(base):
            for name in files:
                if not name.endswith((".cpp", ".cc", ".h", ".sh", ".py")):
                    continue
                with open(os.path.join(dirpath, name), errors="replace") as f:
                    src = f.read()
                flags.update(GETTER_RE.findall(src))
                flags.update(LITERAL_FLAG_RE.findall(src))
    if run_bin:
        r = subprocess.run([run_bin, "--help"], capture_output=True, text=True)
        flags.update(LITERAL_FLAG_RE.findall(r.stdout + r.stderr))
    return flags


def check_flags(doc, text, flags):
    for line_no, line in enumerate(text.splitlines(), 1):
        for name in FLAG_RE.findall(line):
            if name not in flags:
                fail(doc, line_no, f"flag --{name} not found in any tool source, "
                                   "casc_run --help, or the external allowlist")


def check_paths(doc, text, root, build_dir):
    for line_no, line in enumerate(text.splitlines(), 1):
        for token in PATH_RE.findall(line):
            token = token.rstrip(".,")
            if "*" in token or token.endswith(("/", "_", "-")):
                continue  # glob, or a placeholder truncated at `<name>`
            # A doc path may name a repo file, a built artifact (tool and
            # bench binaries live under build/), or a `src/x/y` shorthand
            # for a header — accept any of those spellings.
            candidates = [os.path.join(root, token), os.path.join(root, token + ".h")]
            if token.startswith("build/"):
                candidates = [os.path.join(build_dir, token[len("build/"):])]
            else:
                candidates.append(os.path.join(build_dir, token))
            if not any(os.path.exists(c) for c in candidates):
                fail(doc, line_no, f"path {token} does not exist in the repo or build tree")


def design_headings(root):
    path = os.path.join(root, "DESIGN.md")
    if not os.path.exists(path):
        return set()
    with open(path, errors="replace") as f:
        return set(HEADING_RE.findall(f.read()))


def check_section_refs(doc, text, headings):
    for line_no, line in enumerate(text.splitlines(), 1):
        refs = set(LETTERED_REF_RE.findall(line))
        refs.update(PREFIXED_REF_RE.findall(line))
        for ref in refs:
            if ref not in headings:
                fail(doc, line_no, f"§{ref} does not match any `## {ref}.` "
                                   "heading in DESIGN.md")


def defined_constants(root):
    names = set()
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith((".h", ".cc", ".inc")):
                with open(os.path.join(dirpath, name), errors="replace") as f:
                    names.update(CONST_DEF_RE.findall(f.read()))
    return names


def check_model_constants(root):
    with open(os.path.join(root, "DESIGN.md"), errors="replace") as f:
        lines = f.read().splitlines()
    start = next((i for i, l in enumerate(lines) if l.startswith("## 5.")), None)
    if start is None:
        fail("DESIGN.md", 0, "no `## 5.` section listing the model constants")
        return 0
    defined = defined_constants(root)
    cited = 0
    for line_no in range(start + 1, len(lines)):
        line = lines[line_no]
        if line.startswith("## "):
            break
        for span in CODE_SPAN_RE.findall(line):
            for name in CONST_NAME_RE.findall(span):
                cited += 1
                if name not in defined:
                    fail("DESIGN.md", line_no + 1,
                         f"§5 cites {name}, which no constexpr under src/ defines")
    return cited


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--build", required=True)
    ap.add_argument("--lint", required=True)
    ap.add_argument("--run", default="")
    ap.add_argument("--scratch", default="")
    args = ap.parse_args()

    scratch = args.scratch or tempfile.mkdtemp(prefix="doc_check.")
    os.makedirs(scratch, exist_ok=True)

    flags = known_flags(args.root, args.run)
    headings = design_headings(args.root)
    checked = 0
    for rel in DOC_FILES:
        doc = os.path.join(args.root, rel)
        if not os.path.exists(doc):
            fail(rel, 0, "doc file missing")
            continue
        with open(doc, errors="replace") as f:
            text = f.read()
        check_casm_blocks(rel, text, args.lint, scratch)
        check_flags(rel, text, flags)
        check_paths(rel, text, args.root, args.build)
        check_section_refs(rel, text, headings)
        checked += 1
    constants = check_model_constants(args.root)

    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"doc_check: {len(errors)} problem(s) in {checked} doc(s)", file=sys.stderr)
        return 1
    print(f"doc_check: {checked} docs ok ({len(flags)} known flags, "
          f"{len(headings)} DESIGN.md sections, {constants} §5 constants)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
