package core

import "testing"

// TestEntryTransitionsChangeOneWord holds every entry write the mutators
// make to the layout rule of entry.go: a transition of a live entry
// rewrites exactly one 8-byte word, so a crash leaves it old or new; an
// install or evict may rewrite both, but then either torn mix of the two
// images must decode as not live.
func TestEntryTransitionsChangeOneWord(t *testing.T) {
	const disk, b0, b1 = 1234567, 17, 42
	clean := entry{valid: true, role: RoleBuffer, disk: disk, prev: Fresh, cur: b0}
	dirty := clean
	dirty.modified = true
	logHit := entry{valid: true, role: RoleLog, modified: true, disk: disk, prev: b0, cur: b1}
	logMiss := entry{valid: true, role: RoleLog, modified: true, disk: disk, prev: Fresh, cur: b1}
	switched := entry{valid: true, role: RoleBuffer, modified: true, disk: disk, prev: Fresh, cur: b1}
	revoked := entry{valid: true, role: RoleBuffer, modified: true, disk: disk, prev: Fresh, cur: b0}
	for _, tc := range []struct {
		site          string
		before, after entry
	}{
		{"seal phase B: install of a write miss", entry{}, logMiss},
		{"seal phase B: COW redirect of a clean hit", clean, logHit},
		{"seal phase B: COW redirect of a dirty hit", dirty, logHit},
		{"seal phase D: role switch of a hit", logHit, switched},
		{"seal phase D: role switch of a miss", logMiss, switched},
		{"fillConcurrent: install (optimistic and shard-locked)", entry{}, clean},
		{"writeBack: clean after write-back", dirty, clean},
		{"evictSlot: clean a victim touched during write-back", dirty, clean},
		{"recoverSwitch: redo a role switch", logHit, switched},
		{"recoverRevoke: undo to the previous version", logHit, revoked},
		{"recoverRevoke: undo a fresh block", logMiss, entry{}},
		{"clearEntry: evict or drop a fill", clean, entry{}},
		{"clearEntry: evict a dirty block", dirty, entry{}},
	} {
		a, b := encodeEntry(tc.before), encodeEntry(tc.after)
		changed := 0
		for w := 0; w < 2; w++ {
			if [8]byte(a[w*8:]) != [8]byte(b[w*8:]) {
				changed++
			}
		}
		if tc.before.valid && tc.after.valid {
			if changed != 1 {
				t.Errorf("%s: changes %d words, want 1 (% x -> % x)", tc.site, changed, a, b)
			}
			continue
		}
		// Install or evict: the torn images are one word of each.
		for _, torn := range [][16]byte{
			[16]byte(append(a[:8:8], b[8:]...)),
			[16]byte(append(b[:8:8], a[8:]...)),
		} {
			if decodeEntry(torn).valid {
				t.Errorf("%s: torn image % x decodes as live", tc.site, torn)
			}
		}
	}
}

// FuzzEntryCodec: any 16 bytes decode without a panic, whatever does not
// decode as live decodes as the zero entry, and every live image is the
// one encodeEntry writes for it.
func FuzzEntryCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [16]byte
		copy(b[:], data)
		e := decodeEntry(b)
		if !e.valid {
			if e != (entry{}) {
				t.Fatalf("not-live image % x decodes as %+v", b, e)
			}
			return
		}
		if got := encodeEntry(e); got != b {
			t.Fatalf("live image % x decodes as %+v, which encodes as % x", b, e, got)
		}
	})
}
