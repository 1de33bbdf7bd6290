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
	if e := packResult(res); len(e.delays) >= 8*len(res.Delays) {
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
