package dse

import (
	"fmt"
	"testing"
)

// validRGS reports whether a is a restricted growth string: a[0] == 0 and
// each a[i] <= 1 + max(a[0..i-1]).
func validRGS(a []int) bool {
	maxSeen := -1
	for _, g := range a {
		if g < 0 || g > maxSeen+1 {
			return false
		}
		if g > maxSeen {
			maxSeen = g
		}
	}
	return true
}

// rgsLess compares two RGS of equal length lexicographically.
func rgsLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// checkRGSEnumeration runs the full property set for one n: the enumeration
// visits exactly bellNumber(n) partitions, every visit is a valid RGS, the
// order is strictly lexicographic (which also rules out duplicates), and the
// supplied index matches the visit position.
func checkRGSEnumeration(t *testing.T, n int) {
	t.Helper()
	var prev []int
	count := 0
	forEachPartitionRGS(n, func(index int, rgs []int) bool {
		if index != count {
			t.Fatalf("n=%d visit %d: index = %d", n, count, index)
		}
		if len(rgs) != n {
			t.Fatalf("n=%d visit %d: len(rgs) = %d", n, count, len(rgs))
		}
		if !validRGS(rgs) {
			t.Fatalf("n=%d visit %d: invalid RGS %v", n, count, rgs)
		}
		if prev != nil && !rgsLess(prev, rgs) {
			t.Fatalf("n=%d visit %d: %v not lexicographically after %v", n, count, rgs, prev)
		}
		prev = append(prev[:0], rgs...)
		count++
		return true
	})
	if want := bellNumber(n); count != want {
		t.Fatalf("n=%d: visited %d partitions, want Bell(n) = %d", n, count, want)
	}
}

// TestForEachPartitionRGSProperties checks the enumeration invariants for
// every n the property holds cheaply (Bell(10) = 115975).
func TestForEachPartitionRGSProperties(t *testing.T) {
	for n := 1; n <= 10; n++ {
		checkRGSEnumeration(t, n)
	}
}

// TestForEachPartitionRGSEarlyStop: returning false stops the enumeration at
// exactly that visit, for every possible stopping point of a small n.
func TestForEachPartitionRGSEarlyStop(t *testing.T) {
	n := 6
	total := bellNumber(n)
	for stopAt := 0; stopAt < total; stopAt += 37 {
		count := 0
		forEachPartitionRGS(n, func(index int, rgs []int) bool {
			count++
			return index != stopAt
		})
		if count != stopAt+1 {
			t.Fatalf("stop at %d: visited %d partitions", stopAt, count)
		}
	}
}

// TestForEachPartitionRGSZero: n = 0 visits nothing.
func TestForEachPartitionRGSZero(t *testing.T) {
	forEachPartitionRGS(0, func(int, []int) bool {
		t.Fatal("n=0 produced a visit")
		return false
	})
}

// TestExtTableMatchesEnumeration cross-checks the extension-count table the
// branch-and-bound pruning counters rely on: ext.leaves(n-i, used) must equal
// the number of enumerated completions below each tree node.
func TestExtTableMatchesEnumeration(t *testing.T) {
	n := 7
	ext := newExtTable(n)
	if got, want := ext.leaves(n, 0), int64(bellNumber(n)); got != want {
		t.Fatalf("ext.leaves(%d, 0) = %d, want Bell(n) = %d", n, got, want)
	}
	// Count actual completions per (depth, used-labels) node by bucketing the
	// full enumeration on its prefixes.
	for depth := 1; depth < n; depth++ {
		buckets := map[string]int64{}
		usedAt := map[string]int{}
		forEachPartitionRGS(n, func(_ int, rgs []int) bool {
			key := fmt.Sprint(rgs[:depth])
			buckets[key]++
			used := 0
			for _, g := range rgs[:depth] {
				if g+1 > used {
					used = g + 1
				}
			}
			usedAt[key] = used
			return true
		})
		for key, got := range buckets {
			if want := ext.leaves(n-depth, usedAt[key]); got != want {
				t.Fatalf("depth %d prefix %s: %d completions, ext table says %d", depth, key, got, want)
			}
		}
	}
}

// FuzzForEachPartitionRGS fuzzes the stop position: for arbitrary (n, stop)
// the enumeration must visit min(stop+1, Bell(n)) partitions, all valid and
// strictly increasing.
func FuzzForEachPartitionRGS(f *testing.F) {
	f.Add(5, 10)
	f.Add(8, 0)
	f.Add(1, 100)
	f.Fuzz(func(t *testing.T, n, stop int) {
		if n < 1 || n > 9 || stop < 0 {
			t.Skip()
		}
		var prev []int
		count := 0
		forEachPartitionRGS(n, func(index int, rgs []int) bool {
			if index != count || !validRGS(rgs) || (prev != nil && !rgsLess(prev, rgs)) {
				t.Fatalf("n=%d visit %d: bad enumeration state %v after %v (index %d)", n, count, rgs, prev, index)
			}
			prev = append(prev[:0], rgs...)
			count++
			return index != stop
		})
		want := bellNumber(n)
		if stop+1 < want {
			want = stop + 1
		}
		if count != want {
			t.Fatalf("n=%d stop=%d: visited %d, want %d", n, stop, count, want)
		}
	})
}

// TestBellNumber pins the Bell numbers that BBStats.Partitions and the
// split-depth choice are computed from.
func TestBellNumber(t *testing.T) {
	want := []int{1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570}
	for n, w := range want {
		if got := bellNumber(n); got != w {
			t.Errorf("Bell(%d) = %d, want %d", n, got, w)
		}
	}
}
