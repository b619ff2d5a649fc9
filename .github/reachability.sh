#!/usr/bin/env bash
# Prints the top-level funcs of the repro module's library packages that
# no program links, one per line, sorted, named as the linker names
# them: repro/internal/sim.(*Stepper).Advance.
#
#   bash .github/reachability.sh
#
# Run it from the repository root. CI's "Reachability" step requires its
# output to equal the first column of .github/unreached.txt.
#
# The programs are every main package: cmd/*, examples/* and perfbench
# (its own module). Each is built with inlining off in the repro
# packages, so every function a program calls keeps its symbol. What the
# programs link is the union of their go tool nm text symbols under
# repro, with type arguments stripped: runner.Map[go.shape.*uint8] is
# runner.Map. The funcs are the lines of the non-test Go files of every
# non-main package that start with "func ", named by gofuncs.awk; init
# funcs are left out.
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -gcflags='repro/...=-l' -o "$tmp/bin/" ./cmd/... ./examples/...
go build -C perfbench -gcflags='repro/...=-l' -o "$tmp/bin/" .
for b in "$tmp"/bin/*; do
	go tool nm "$b"
done |
	sed -n 's/^ *[0-9a-f]* [Tt] \(repro[./].*\)$/\1/p' |
	sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' |
	LC_ALL=C sort -u >"$tmp/linked"
go list -f '{{if ne .Name "main"}}{{range .GoFiles}}{{$.ImportPath}}{{"\t"}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... |
	awk -F'\t' -f "$(dirname "$0")/gofuncs.awk" -f /dev/fd/3 3<<'EOF' |
{
	readfuncs($2)
	for (i = 1; i <= nfunc[$2]; i++)
		if (fname[$2, i] != "init") print $1 "." fname[$2, i]
}
EOF
	LC_ALL=C sort -u |
	LC_ALL=C comm -23 - "$tmp/linked"
