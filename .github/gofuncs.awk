# Indexes the top-level func declarations of Go source files. Both
# .github/pgo-inlines.sh and .github/reachability.sh load it with -f.
#
# readfuncs(file) reads file once and sets nfunc[file] to the number of
# its lines that start with "func ". For the i-th of them, fline[file, i]
# is its line number and fname[file, i] the function's name as the
# compiler and the linker print it, without the package: F, T.M or
# (*T).M. Type parameters are stripped before the receiver's type is
# read, so "func (c *memo[K, V]) get(key K) V" is (*memo).get.
function readfuncs(file,    n, src, name, recv) {
	if (file in nfunc) return
	nfunc[file] = 0
	n = 0
	while ((getline src < file) > 0) {
		n++
		if (src !~ /^func /) continue
		name = src
		sub(/^func /, "", name)
		recv = ""
		if (name ~ /^\(/) {
			recv = name
			sub(/\).*/, "", recv)
			sub(/\[.*/, "", recv)
			sub(/.* /, "", recv)
			sub(/^\(/, "", recv)
			if (recv ~ /^\*/) recv = "(" recv ")"
			recv = recv "."
			sub(/^\([^)]*\) */, "", name)
		}
		sub(/[\[(].*/, "", name)
		nfunc[file]++
		fline[file, nfunc[file]] = n
		fname[file, nfunc[file]] = recv name
	}
	close(file)
}
