package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
)

// checkCacheRoundTrip puts in through a memory cache and requires every
// Get to return it unchanged: deeply equal, and with the same JSON
// encoding.
func checkCacheRoundTrip(t *testing.T, in netsim.Result) {
	t.Helper()
	want, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	if err := c.Put("k", in); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, ok := c.Get("k")
		if !ok {
			t.Fatal("entry missing after Put")
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("Get #%d = %+v, want %+v", i+1, got, in)
		}
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("Get #%d encodes as\n%s\nwant\n%s", i+1, enc, want)
		}
	}
}

func TestCacheEntryRoundTrip(t *testing.T) {
	delays := func(ds ...time.Duration) netsim.Result {
		var res netsim.Result
		res.GeneratedBits, res.DeliveredBits = 2560, 2304
		res.Events = 77
		res.Delays = ds
		return res
	}
	const minD, maxD = time.Duration(math.MinInt64), time.Duration(math.MaxInt64)
	cases := []struct {
		name string
		res  netsim.Result
	}{
		{"nil delays", delays()},
		{"empty delays", delays([]time.Duration{}...)},
		{"single delay", delays(1500 * time.Millisecond)},
		{"int64 extremes", delays(maxD, minD, maxD, 0, -1, minD, minD+1, maxD-1, 1)},
		{"unsorted", delays(5*time.Second, time.Millisecond, 5*time.Second, 0, 3)},
		{"traced", tracedResult(t)},
		{"per-node nil and empty slices", func() netsim.Result {
			res := delays(time.Second)
			res.PerNode = []metrics.NodeEnergy{
				{Node: 0},
				{Node: 1, Radios: []metrics.RadioEnergy{}},
				{Node: 2, Radios: []metrics.RadioEnergy{{Radio: "sensor"}, {Radio: "wifi", States: []metrics.StateEnergy{}}}},
			}
			return res
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkCacheRoundTrip(t, tc.res)
		})
	}
}

// TestCacheEntryPacksDelays checks the point of the packed tier: a real
// run's delays take fewer than 8 bytes each.
func TestCacheEntryPacksDelays(t *testing.T) {
	res := tracedResult(t)
	if len(res.Delays) == 0 {
		t.Fatal("traced run delivered nothing")
	}
	if e := packResult("k", res); len(e.delays) >= 8*len(res.Delays) {
		t.Errorf("%d delays packed into %d bytes, want fewer than 8 each", len(res.Delays), len(e.delays))
	}
}

func TestCacheGetDoesNotAlias(t *testing.T) {
	c := NewCache()
	put := netsim.Result{}
	put.Delays = []time.Duration{time.Second, 2 * time.Second}
	put.PerNode = []metrics.NodeEnergy{{Node: 0, Radios: []metrics.RadioEnergy{
		{Radio: "sensor", States: []metrics.StateEnergy{{State: "idle", Energy: 1}}},
	}}}
	if err := c.Put("k", put); err != nil {
		t.Fatal(err)
	}
	// Changing the caller's slices after Put must not reach the cache.
	put.Delays[0] = time.Hour
	put.PerNode[0].Radios[0].States[0].Energy = 99

	got, _ := c.Get("k")
	if got.Delays[0] != time.Second {
		t.Fatalf("Put kept the caller's Delays: got %v", got.Delays[0])
	}
	if e := got.PerNode[0].Radios[0].States[0].Energy; e != 1 {
		t.Fatalf("Put kept the caller's PerNode: got %v", e)
	}
	// Nor may changing what one Get returned reach the next Get.
	got.Delays[0] = time.Hour
	got.PerNode[0].Radios[0].States[0].Energy = 99
	again, _ := c.Get("k")
	if again.Delays[0] != time.Second {
		t.Errorf("Get shares Delays with the cache: got %v", again.Delays[0])
	}
	if e := again.PerNode[0].Radios[0].States[0].Energy; e != 1 {
		t.Errorf("Get shares PerNode with the cache: got %v", e)
	}
}

// FuzzCacheEntry feeds arbitrary JSON results through the memory tier.
// Every disk-cache hit decodes JSON read from disk and packs it, so the
// packed form must reproduce any decodable Result exactly.
func FuzzCacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in netsim.Result
		if err := json.Unmarshal(data, &in); err != nil {
			return
		}
		checkCacheRoundTrip(t, in)
	})
}

// TestJobKeysMatchCellKeys: JobKeys is index-aligned and derives the
// exact per-cell key Key produces, which JobsKey hashes in job order.
func TestJobKeysMatchCellKeys(t *testing.T) {
	spec, err := ParseSpecJSON([]byte(`{
		"models": ["sensor", "dual"], "senders": [5, 10, 15],
		"bursts": [10], "runs": 1, "duration_s": 30, "rate_bps": 2000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := JobKeys(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(jobs) {
		t.Fatalf("JobKeys returned %d keys for %d jobs", len(keys), len(jobs))
	}
	for i, job := range jobs {
		want, err := Key(job.Config)
		if err != nil {
			t.Fatal(err)
		}
		if keys[i] != want {
			t.Errorf("key[%d] = %s, want %s", i, keys[i], want)
		}
	}
}

// delayResult is a result whose memory-tier footprint grows with n.
func delayResult(n int) netsim.Result {
	var res netsim.Result
	res.Delays = make([]time.Duration, n)
	for i := range res.Delays {
		res.Delays[i] = time.Duration(i) * time.Millisecond
	}
	return res
}

// entrySize is the footprint the memory tier charges for res.
func entrySize(res netsim.Result) int64 { return packResult("k", res).size }

// cached reports whether key is in the memory tier, without touching
// its recency.
func cached(c *Cache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.mem[key]
	return ok
}

func TestCacheMemoryBudgetEvictsLeastRecentlyUsed(t *testing.T) {
	res := delayResult(1000)
	size := entrySize(res)
	c := NewCache()
	c.SetMemoryBudget(3 * size)
	for _, k := range []string{"a", "b", "c"} {
		if err := c.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 3*size || st.Evictions != 0 {
		t.Fatalf("full tier stats = %+v, want 3 entries, %d bytes, no evictions", st, 3*size)
	}
	// Get refreshes recency: "a" survives the next Put, "b" goes.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if err := c.Put("d", res); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if got := cached(c, k); got != want {
			t.Errorf("%s in memory = %v, want %v", k, got, want)
		}
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes > 3*size || st.Evictions != 1 {
		t.Errorf("stats after eviction = %+v, want 3 entries within %d bytes, 1 eviction", st, 3*size)
	}
	// Lowering the budget evicts at once.
	c.SetMemoryBudget(size)
	if st := c.Stats(); st.Entries != 1 || st.Bytes > size || st.Evictions != 3 {
		t.Errorf("stats after shrinking = %+v, want 1 entry within %d bytes, 3 evictions", st, size)
	}
	if !cached(c, "d") {
		t.Error("shrinking evicted the most recently used entry")
	}
}

// TestCacheOversizedEntryNotKept pins the rule for one entry larger
// than the whole budget: it is not kept in memory, and it evicts
// nothing to make room.
func TestCacheOversizedEntryNotKept(t *testing.T) {
	small, big := delayResult(10), delayResult(10000)
	c := NewCache()
	c.SetMemoryBudget(entrySize(big) - 1)
	if err := c.Put("small", small); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("big"); ok {
		t.Error("oversized entry served from a memory-only cache")
	}
	if !cached(c, "small") {
		t.Error("oversized entry evicted a fitting one")
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 entry and no evictions", st)
	}
}

// TestCacheEvictedDiskEntryServedFromDisk: eviction only drops the
// memory copy of a disk-backed entry; the next Get re-reads the file.
func TestCacheEvictedDiskEntryServedFromDisk(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := delayResult(100), delayResult(200)
	c.SetMemoryBudget(entrySize(b))
	if err := c.Put("a", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", b); err != nil {
		t.Fatal(err)
	}
	if cached(c, "a") {
		t.Fatal("a still in memory over budget")
	}
	got, ok := c.Get("a")
	if !ok {
		t.Fatal("evicted disk-backed entry missed")
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("disk re-read = %+v, want %+v", got, a)
	}
	if !cached(c, "a") || cached(c, "b") {
		t.Error("disk hit did not move a back into memory in place of b")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
}
