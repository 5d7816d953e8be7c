// Content addressing for the verdict cache. The key must be
// collision-resistant against adversarial inputs, not just uniform on random
// ones: with a non-cryptographic hash (XXH64, FNV, ...) an attacker who can
// construct two same-digest scripts primes the cache with a benign one and
// then submits a colliding malicious one, which is answered from the cache
// without ever being scanned — a detection bypass, not a perf bug. SHA-256
// closes that line entirely (producing any collision breaks the hash
// itself), and its cost — a few microseconds on a typical script — is noise
// next to the hundreds of microseconds a cold pipeline pass takes.
package scan

import (
	"crypto/sha256"
	"unsafe"
)

// digest is the SHA-256 digest of a script source: the content part of the
// cache key and the audit trail's sha256.
type digest [sha256.Size]byte

// contentKey digests s without copying it: Sum256 neither mutates nor
// retains its argument, so aliasing the string's backing bytes is safe and
// keeps the cache lookup allocation-free. StringData is unspecified for
// empty strings, hence the guard.
func contentKey(s string) digest {
	if len(s) == 0 {
		return sha256.Sum256(nil)
	}
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(s), len(s)))
}
