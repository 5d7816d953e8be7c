package scan

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// TestContentKeyMatchesSHA256 pins contentKey to the stdlib digest of a
// copied byte slice — the zero-copy aliasing must never change the result.
func TestContentKeyMatchesSHA256(t *testing.T) {
	for _, in := range []string{
		"",
		"a",
		"abc",
		strings.Repeat("x", 31),
		strings.Repeat("x", 32),
		strings.Repeat("function a(){return 1;}\n", 64),
		"var x = \x00\xff\xfe binary-ish ☃",
	} {
		want := digest(sha256.Sum256([]byte(in)))
		if got := contentKey(in); got != want {
			t.Errorf("contentKey(%q) = %x, want %x", in, got, want)
		}
	}
}

// TestContentKeySubstringAliasing: contentKey is routinely called on
// substrings (truncated prefixes for oversized inputs), so digesting a slice
// of a larger string must equal digesting an independent copy.
func TestContentKeySubstringAliasing(t *testing.T) {
	base := strings.Repeat("var x = document.createElement('script');\n", 16)
	for _, end := range []int{1, 7, len(base) / 2, len(base)} {
		sub := base[:end]
		want := digest(sha256.Sum256([]byte(sub)))
		if got := contentKey(sub); got != want {
			t.Errorf("contentKey(base[:%d]) = %x, want %x", end, got, want)
		}
	}
}

// TestContentKeyPrefixSensitivity: a one-byte change anywhere must change
// the digest.
func TestContentKeyPrefixSensitivity(t *testing.T) {
	base := strings.Repeat("function a(){return 1;}\n", 8)
	want := contentKey(base)
	for i := 0; i < len(base); i += 7 {
		mut := base[:i] + "#" + base[i+1:]
		if contentKey(mut) == want {
			t.Fatalf("flipping byte %d did not change the digest", i)
		}
	}
}

// BenchmarkContentHash measures cache-key digest throughput on a typical
// script (the name predates the SHA-256 switch; kept so BENCH_scan.json
// history lines up).
func BenchmarkContentHash(b *testing.B) {
	src := strings.Repeat("var x = document.createElement('script');\n", 200)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if contentKey(src) == (digest{}) {
			b.Fatal("zero digest")
		}
	}
}
