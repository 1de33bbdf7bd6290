package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"bulktx/internal/faultinject"
	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
)

// cacheSchema versions the cache key space. Bump it whenever the
// simulator's behavior changes (new charging rule, protocol fix, ...):
// old entries become unreachable instead of silently stale. Deleting
// the cache directory is always safe — entries are pure memoization.
//
// Known exception kept at schema 1: the Scenario redesign changed
// topo.Grid's degenerate n<=3 layouts (corner frame -> mid-field row).
// Entries for such configs — which cannot host a meaningful sweep
// (at most n-1 senders) and were never produced by the shipped specs —
// would be stale; delete the cache directory if you ever swept them.
const cacheSchema = 1

// Key derives the content key of one run: a SHA-256 over the cache
// schema version and the canonical JSON encoding of the full
// configuration (including the seed). Two configs share a key iff they
// describe the same simulation.
func Key(cfg netsim.Config) (string, error) {
	enc, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("sweep: encoding config key: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "bulktx-sweep-v%d:", cacheSchema)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// JobKeys derives the per-cell content key of every job in the list —
// the same keys Pool uses for its cache and intra-batch dedupe. Index i
// of the result is job i's key; duplicate configurations yield
// duplicate keys.
func JobKeys(jobs []Job) ([]string, error) {
	keys := make([]string, len(jobs))
	for i, job := range jobs {
		key, err := Key(job.Config)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	return keys, nil
}

// JobsKey derives the content key of a whole compiled job list: a
// SHA-256 over the cache schema version and every job's configuration
// key, in job order. Two submissions share a key iff they compile to
// the same simulations in the same order — the dedupe identity used by
// the HTTP service to collapse identical spec submissions onto one job.
func JobsKey(jobs []Job) (string, error) {
	keys, err := JobKeys(jobs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "bulktx-sweep-jobs-v%d:", cacheSchema)
	for _, key := range keys {
		fmt.Fprintf(h, "%s\n", key)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cache memoizes run results by content key. The in-memory map is
// always on; when constructed with NewDiskCache, entries are also
// persisted as one JSON file per key under the cache directory, so
// results survive across processes. All methods are safe for
// concurrent use.
//
// The memory tier holds each result packed (see cacheEntry): Put keeps
// no reference to the caller's slices, and every Get returns fresh
// ones, so callers may modify what they put or got.
type Cache struct {
	mu  sync.Mutex
	mem map[string]cacheEntry
	dir string // "" = memory only
}

// NewCache returns an in-memory (process-lifetime) cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]cacheEntry)}
}

// cacheEntry is one result in the memory tier. Per-packet delays are
// most of a result's bytes, so they are stored as zigzag varints of
// the difference to the previous delay (the first against zero): about
// 4 bytes per delay in the paper's runs instead of 8. Differences wrap
// in int64, and decoding wraps them back, so every value round-trips
// exactly.
type cacheEntry struct {
	res    netsim.Result // Delays nil, PerNode a private copy
	delays []byte
	n      int // len(Delays), or -1 for a nil Delays
}

// packResult builds the memory-tier entry of res.
func packResult(res netsim.Result) cacheEntry {
	e := cacheEntry{n: -1}
	if res.Delays != nil {
		e.n = len(res.Delays)
		// Size the buffer exactly: an entry lives as long as the cache.
		size, prev := 0, int64(0)
		for _, d := range res.Delays {
			size += uvarintLen(zigzag(int64(d) - prev))
			prev = int64(d)
		}
		e.delays, prev = make([]byte, 0, size), 0
		for _, d := range res.Delays {
			e.delays = binary.AppendUvarint(e.delays, zigzag(int64(d)-prev))
			prev = int64(d)
		}
	}
	e.res = res
	e.res.Delays = nil
	e.res.PerNode = clonePerNode(res.PerNode)
	return e
}

// result decodes the entry into a Result that shares no slices with it.
func (e cacheEntry) result() netsim.Result {
	res := e.res
	res.PerNode = clonePerNode(e.res.PerNode)
	if e.n < 0 {
		return res
	}
	res.Delays = make([]time.Duration, e.n)
	buf, prev := e.delays, int64(0)
	for i := range res.Delays {
		u, k := binary.Uvarint(buf)
		buf = buf[k:]
		prev += int64(u>>1) ^ -int64(u&1)
		res.Delays[i] = time.Duration(prev)
	}
	return res
}

// zigzag maps signed to unsigned so small magnitudes of either sign
// take few varint bytes.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// uvarintLen is the length of binary.AppendUvarint's encoding of u.
func uvarintLen(u uint64) int { return 1 + (bits.Len64(u)-1)/7 }

// clonePerNode deep-copies a per-node breakdown, keeping nil and empty
// slices apart (their JSON encodings differ).
func clonePerNode(nodes []metrics.NodeEnergy) []metrics.NodeEnergy {
	if nodes == nil {
		return nil
	}
	out := slices.Clone(nodes)
	for i := range out {
		out[i].Radios = slices.Clone(out[i].Radios)
		for j := range out[i].Radios {
			out[i].Radios[j].States = slices.Clone(out[i].Radios[j].States)
		}
	}
	return out
}

// NewDiskCache returns a cache backed by dir (created if missing) in
// addition to the in-memory map.
func NewDiskCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: creating cache dir: %w", err)
	}
	return &Cache{mem: make(map[string]cacheEntry), dir: dir}, nil
}

// Dir reports the on-disk directory ("" for memory-only caches).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get looks the key up in memory, then (if configured) on disk.
// Disk corruption is treated as a miss, never an error.
func (c *Cache) Get(key string) (netsim.Result, bool) {
	if c == nil {
		return netsim.Result{}, false
	}
	c.mu.Lock()
	e, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		return e.result(), true
	}
	if c.dir == "" {
		return netsim.Result{}, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return netsim.Result{}, false
	}
	var disk netsim.Result
	if err := json.Unmarshal(data, &disk); err != nil {
		return netsim.Result{}, false
	}
	e = packResult(disk)
	c.mu.Lock()
	c.mem[key] = e
	c.mu.Unlock()
	return disk, true
}

// Put stores the result under key, persisting it to disk when the
// cache has a directory. Disk writes are atomic (temp file + rename)
// so a crashed run never leaves a truncated entry behind.
func (c *Cache) Put(key string, res netsim.Result) error {
	if c == nil {
		return nil
	}
	e := packResult(res)
	c.mu.Lock()
	c.mem[key] = e
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	// Deterministic chaos hook: lets tests and smokes fail the disk
	// tier without unplugging a disk. Free when no plan is active.
	if err := faultinject.Error(faultinject.CachePut, key); err != nil {
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: encoding cached result: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing cache entry: %w", err)
	}
	return nil
}
