#!/usr/bin/env bash
# Prints the machine code of the untracked execution path: every function
# instantiated for `asc_tvm::exec::NoDeps` (the main thread's dependency
# sink, whose recording calls must compile to nothing) and `Machine::run*`,
# as found in the release objects of `asc-tvm` and `asc-core`.
#
#   scripts/nodeps-asm.sh > nodeps.s      # exit 1 when no such function is found
#
# Diffing the output of two checkouts shows whether a change altered a
# single instruction of that path; an empty diff means it did not. The
# listing is normalized so that only the code shows: one block per
# function, sorted by crate and name, offsets relative to the function,
# relocations by symbol name (the relocation line, not objdump's guess at a
# `%rip` operand's label), and what names a build's path or codegen-unit
# layout (crate hashes, `.llvm.` suffixes, the numbering of constant-pool,
# switch-table and anonymous labels) removed.
#
# The build uses v0 symbol mangling, which keeps generic arguments in the
# symbol (`run_segment::<asc_tvm::exec::NoDeps>`). Setting RUSTFLAGS
# replaces the flags of `.cargo/config.toml`, so its function alignment is
# repeated here. It builds into its own target directory, target/nodeps-asm,
# and leaves the regular build alone.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export LC_ALL=C # a byte-wise, locale-independent sort order

target=target/nodeps-asm
RUSTFLAGS="-C symbol-mangling-version=v0 -C llvm-args=-align-all-functions=6" \
    cargo build --release --offline --quiet -p asc-core --target-dir "$target" >&2

listing=$(
    for crate in asc_tvm asc_core; do
        libs=("$target"/release/deps/lib"$crate"-*.rlib)
        if [ "${#libs[@]}" -ne 1 ] || [ ! -f "${libs[0]}" ]; then
            echo "nodeps-asm: expected one lib$crate rlib under $target, found: ${libs[*]}" >&2
            exit 2
        fi
        objdump -d -r -C --no-show-raw-insn "${libs[0]}" |
            awk -v crate="$crate" '
                /^[0-9a-f]+ <.*>:$/ {
                    name = substr($0, index($0, "<") + 1)
                    name = substr(name, 1, length(name) - 2)
                    keep = name ~ /asc_tvm::exec::NoDeps/ || name ~ /^<asc_tvm::machine::Machine>::run/
                    if (keep) printf "%s %s\t%08d\t== %s\n", crate, name, 0, name
                    line = 0
                    next
                }
                keep && NF { printf "%s %s\t%08d\t%s\n", crate, name, ++line, $0 }
                /^$/ { keep = 0 }
            '
    done |
        sort -t "$(printf '\t')" -k1,1 -k2,2 |
        cut -f 3- |
        sed -E \
            -e 's/^ *[0-9a-f]+:\t//' \
            -e 's/^\t\t\t[0-9a-f]+: /\t/' \
            -e 's/(\(%rip\)[^#]*)#.*$/\1/' \
            -e 's/ +$//' \
            -e 's/\.LCPI[0-9]+_[0-9]+/.LCPI/g' \
            -e 's/__unnamed_[0-9]+/__unnamed/g' \
            -e 's/anon\.[0-9a-f]+\.[0-9]+/anon/g' \
            -e 's/\.llvm\.[0-9]+/.llvm/g' \
            -e 's/(switch\.table\.[^ .]+)\.[0-9]+/\1/g' \
            -e 's/Cs[0-9A-Za-z]+_/Cs_/g' \
            -e 's/\[[0-9a-f]{8,}\]//g'
)

functions=$(grep -c '^== ' <<<"$listing" || true)
if [ "$functions" -eq 0 ]; then
    echo "nodeps-asm: no NoDeps instantiation or Machine::run* found" >&2
    exit 1
fi
printf '%s\n' "$listing"
echo "nodeps-asm: $functions functions" >&2
