#!/usr/bin/env bash
# Prints the caller -> callee pairs the compiler inlines into the repro
# packages when it builds the command in directory $1, one pair per line,
# sorted, without positions. Further arguments go to go build, e.g.
# -pgo=off or -pgo=FILE.
#
#   bash .github/pgo-inlines.sh cmd/experiments
#
# Run it from the repository root. CI's "PGO profiles" step requires
# every pair in cmd/<name>/pgo-inlines.txt in its output.
#
# The compiler's -m report gives each inlined call's position and callee
# (a callee inlined inside another inlined body is reported at the outer
# call). The caller is the top-level function whose declaration precedes
# that position in its file, named <package directory>.<function> as
# gofuncs.awk names it; the callee is named as the compiler prints it.
# Only calls in the module's own files, whose positions are relative to
# the repository root, are printed: a call inside a standard-library
# generic body instantiated here is reported at its absolute path under
# GOROOT, which depends on where Go is installed.
set -euo pipefail
dir=$1
shift
go build "$@" -gcflags='repro/...=-m' -o /dev/null "./$dir" 2>&1 |
	awk -F': inlining call to ' -f "$(dirname "$0")/gofuncs.awk" -f /dev/fd/3 3<<'EOF' |
NF == 2 && $1 !~ /^\// {
	split($1, pos, ":")
	file = pos[1]
	readfuncs(file)
	pkg = file
	sub(/\/[^\/]*$/, "", pkg)
	caller = "?"
	for (i = 1; i <= nfunc[file]; i++) {
		if (fline[file, i] > pos[2]) break
		caller = pkg "." fname[file, i]
	}
	print caller " -> " $2
}
EOF
	LC_ALL=C sort -u
