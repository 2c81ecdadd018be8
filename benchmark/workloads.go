package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"tierbase/internal/workload"
)

// loadConns is the number of load connections; every key belongs to the
// connection (key index mod loadConns), so each connection sees its own
// writes in order and knows the exact version a GET must return.
const loadConns = 2

// closedWindow is the number of requests each connection keeps in flight in
// the closed phase; pacedWindow is the outstanding count past which a paced
// request is dropped and counted as failed. At the workloads' rates that is
// over a second of backlog: a shared box stalls for tens of milliseconds
// without the server being at fault, and the wait shows in the latency.
const (
	closedWindow = 8
	pacedWindow  = 32768
)

type valueKind uint8

const (
	valueKV1    valueKind = iota // JSON record shaped like workload.NewKV1, ~190 B
	valueRandom                  // (key, version) header + seeded incompressible bytes
)

// spec is one row of the workload table in README.md. The server flags
// derived from it in serverArgs are the whole server configuration.
type spec struct {
	name string
	why  string

	keys      int
	kind      valueKind
	valueSize int  // valueRandom only
	zipf      bool // scrambled zipfian theta 0.99, else uniform
	readPct   int
	rate      int // paced phase, requests/s over both connections

	policy       string
	compression  bool
	cacheDivisor int64 // cache tier = user bytes / cacheDivisor; 0 = unbounded
	replicated   bool  // master with -semisync-acks 1 plus one replica
	warmup       time.Duration
	restartCheck bool // SIGTERM + restart on the same -dir, then read back
}

// Rates are 40 % of the seed's median closed-loop throughput on the 2-core
// box the baseline was taken on, rounded to two significant figures.
var specs = []spec{
	{
		name: "hit-read",
		why:  "working set fits the cache tier: server, elastic, engine, PBC decompress and the cache hit path do all the work; lsm, wal, replication do none",
		keys: 200_000, kind: valueKV1, zipf: true, readPct: 100, rate: 30000,
		policy: "write-through", compression: true,
	},
	{
		name: "miss-read",
		why:  "data is 8x the cache tier and the LSM block cache, uniform keys: ~90% of GETs take the cache miss path (fetch, admit, evict) and an LSM read",
		keys: 400_000, kind: valueRandom, valueSize: 256, readPct: 100, rate: 15000,
		policy: "write-through", cacheDivisor: 8, warmup: 2 * time.Second,
	},
	{
		name: "wt-mixed",
		why:  "hit-read's layers used the other way: 50% SET through engine, PBC compress, write-through queues, RMW stripe locks on hot keys, lsm put and wal append",
		keys: 100_000, kind: valueKV1, zipf: true, readPct: 50, rate: 18000,
		policy: "write-through", compression: true, restartCheck: true,
	},
	{
		name: "repl-write",
		why:  "100% SET to a semi-sync master with one replica: op log, frame batching, ack wait and the write-back flusher carry the cost; three processes share two cores",
		keys: 100_000, kind: valueRandom, valueSize: 128, readPct: 0, rate: 4000,
		policy: "write-back", replicated: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload for the smoke test: same shape, 10k keys.
func (s spec) quick() spec {
	s.keys = 10_000
	s.rate /= 4
	if s.warmup > 0 {
		s.warmup = 200 * time.Millisecond
	}
	return s
}

const keyLen = 16

func appendKey(dst []byte, k uint32) []byte {
	tmp := [keyLen]byte{'k', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0'}
	for i := keyLen - 1; k > 0; i-- { // a uint32 has at most 10 digits
		tmp[i] = byte('0' + k%10)
		k /= 10
	}
	return append(dst, tmp[:]...)
}

// userBytes is the key+value bytes the generator has written once every key
// holds a value: the denominator of the *_bytes_per_user_byte metrics.
func (s spec) userBytes() int64 {
	if s.kind == valueRandom {
		return int64(s.keys) * int64(keyLen+s.valueSize)
	}
	var n int64
	var buf []byte
	for k := 0; k < s.keys; k++ {
		buf = s.appendValue(buf[:0], uint32(k), 0)
		n += int64(keyLen + len(buf))
	}
	return n
}

// cacheBytes is the -cache-bytes flag (0 = unbounded).
func (s spec) cacheBytes() int64 {
	if s.cacheDivisor == 0 {
		return 0
	}
	return s.userBytes() / s.cacheDivisor
}

// serverArgs maps a workload to tierbase-server flags. stack.go mirrors the
// same mapping for the in-process traced run.
func (s spec) serverArgs(dir, nodeID, replicaOf string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-dir", dir, "-policy", s.policy}
	if s.compression {
		args = append(args, "-compression", "pbc", "-train-on", "kv1")
	}
	if cb := s.cacheBytes(); cb > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(cb, 10))
	}
	if s.replicated {
		args = append(args, "-node-id", nodeID)
		if replicaOf != "" {
			args = append(args, "-replicaof", replicaOf)
		} else {
			args = append(args, "-semisync-acks", "1")
		}
	}
	return args
}

// --- self-describing values ---

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// kv1Base is the user_id offset of workload.NewKV1: record i carries
// user_id = kv1Base + i.
const kv1Base = 2088_0000_0000

var (
	kv1Status  = []string{"ACTIVE", "INACTIVE", "SUSPENDED", "PENDING"}
	kv1Channel = []string{"mobile_app", "web_portal", "mini_program", "api_gateway"}
	kv1City    = []string{"hangzhou", "shanghai", "beijing", "shenzhen", "chengdu", "xian"}
)

// appendKV1 emits record i in the schema of workload.NewKV1, which the
// server's "-train-on kv1" PBC dictionary is trained on. It is not
// workload.NewKV1().Record: that reseeds a math/rand source per record
// (14 us), more than a whole request costs, and every GET reply is
// re-derived here. Field values come from splitmix64(i) instead.
func appendKV1(dst []byte, i int64) []byte {
	x := uint64(i)
	r := splitmix(&x)
	pick := func(n uint64) uint64 { v := r % n; r = splitmix(&x); return v }
	dst = append(dst, `{"user_id":"`...)
	dst = strconv.AppendInt(dst, kv1Base+i, 10)
	dst = append(dst, `","status":"`...)
	dst = append(dst, kv1Status[pick(4)]...)
	dst = append(dst, `","level":`...)
	dst = strconv.AppendUint(dst, 1+pick(9), 10)
	dst = append(dst, `,"channel":"`...)
	dst = append(dst, kv1Channel[pick(4)]...)
	dst = append(dst, `","city":"`...)
	dst = append(dst, kv1City[pick(6)]...)
	dst = append(dst, `","score":`...)
	dst = strconv.AppendUint(dst, pick(1000), 10)
	dst = append(dst, `,"last_login_ts":`...)
	dst = strconv.AppendUint(dst, 1700_000_000+pick(30_000_000), 10)
	dst = append(dst, `,"tags":["t`...)
	dst = strconv.AppendUint(dst, pick(64), 10)
	dst = append(dst, `","t`...)
	dst = strconv.AppendUint(dst, pick(64), 10)
	dst = append(dst, `"],"balance_cents":`...)
	dst = strconv.AppendUint(dst, pick(10_000_000), 10)
	return append(dst, '}')
}

// appendValue emits the value of key k at version v. A KV1 value is record
// k + v*keys, so its user_id names both; a random value starts with (k, v)
// big-endian and continues with bytes regenerated from that pair.
func (s spec) appendValue(dst []byte, k, v uint32) []byte {
	if s.kind == valueKV1 {
		return appendKV1(dst, int64(k)+int64(v)*int64(s.keys))
	}
	dst = binary.BigEndian.AppendUint32(dst, k)
	dst = binary.BigEndian.AppendUint32(dst, v)
	x := uint64(k)<<32 | uint64(v)
	for n := 8; n < s.valueSize; n += 8 { // valueSize is a multiple of 8
		dst = binary.LittleEndian.AppendUint64(dst, splitmix(&x))
	}
	return dst
}

// checkValue reports whether got is exactly the value of key k at version v,
// re-deriving it into scratch.
func (s spec) checkValue(k, v uint32, got []byte, scratch *[]byte) bool {
	*scratch = s.appendValue((*scratch)[:0], k, v)
	return got != nil && bytes.Equal(got, *scratch)
}

// describeValue decodes the (key, version) a value claims, for the message
// printed when a reply does not match.
func (s spec) describeValue(val []byte) string {
	if val == nil {
		return "nil"
	}
	if s.kind == valueRandom {
		if len(val) < 8 {
			return fmt.Sprintf("%d bytes", len(val))
		}
		return fmt.Sprintf("key %d version %d", binary.BigEndian.Uint32(val), binary.BigEndian.Uint32(val[4:]))
	}
	const pre = `{"user_id":"`
	if len(val) < len(pre)+12 || string(val[:len(pre)]) != pre {
		return fmt.Sprintf("not a kv1 record (%d bytes)", len(val))
	}
	uid, err := strconv.ParseInt(string(val[len(pre):len(pre)+12]), 10, 64)
	if err != nil {
		return "unparsable user_id"
	}
	i := uid - kv1Base
	return fmt.Sprintf("key %d version %d", i%int64(s.keys), i/int64(s.keys))
}

// --- op stream ---

const (
	opGet uint8 = iota
	opSet
)

// op is one request. For a SET ver is the version written; for a GET it is
// the version the reply must carry.
type op struct {
	kind uint8
	key  uint32
	ver  uint32
}

// opStream is one connection's deterministic request sequence: key choice
// and op mix come from the seed alone, never from timing.
type opStream struct {
	spec   spec
	rng    *rand.Rand
	choose workload.KeyChooser
	conn   uint32
	stride uint32
	ver    []uint32 // latest version sent, by owned-key ordinal
}

// newOpStream builds the stream of connection conn out of stride
// connections; stride 1 owns every key (the traced run).
func newOpStream(s spec, seed int64, conn, stride int) *opStream {
	own := int64(s.keys / stride)
	st := &opStream{
		spec:   s,
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1)),
		conn:   uint32(conn),
		stride: uint32(stride),
		ver:    make([]uint32, own),
	}
	if s.zipf {
		st.choose = workload.NewScrambledZipfian(own, 0.99)
	} else {
		st.choose = workload.NewUniform(own)
	}
	return st
}

func (st *opStream) next() op {
	j := st.choose.Next(st.rng)
	key := uint32(j)*st.stride + st.conn
	if st.rng.Intn(100) < st.spec.readPct {
		return op{opGet, key, st.ver[j]}
	}
	st.ver[j]++
	return op{opSet, key, st.ver[j]}
}

// version reports the latest version sent for key k, which must be owned.
func (st *opStream) version(k uint32) uint32 { return st.ver[k/st.stride] }

// arrivals is a Poisson arrival schedule: successive due times, as offsets
// from the phase start, with exponential gaps at rate per second.
type arrivals struct {
	rng  *rand.Rand
	rate float64
	due  time.Duration
}

func newArrivals(seed int64, conn int, rate float64) *arrivals {
	a := &arrivals{rng: rand.New(rand.NewSource(seed*1_000_033 + int64(conn)*104729 + 2)), rate: rate}
	a.advance()
	return a
}

func (a *arrivals) advance() {
	a.due += time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
}

// --- RESP encoding ---

func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

func appendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

// appendOp encodes o as a RESP command; scratch is reused for key and value.
func (s spec) appendOp(dst []byte, o op, scratch *[]byte) []byte {
	b := appendKey((*scratch)[:0], o.key)
	if o.kind == opGet {
		dst = append(dst, "*2\r\n$3\r\nGET\r\n"...)
		dst = appendBulk(dst, b)
	} else {
		dst = append(dst, "*3\r\n$3\r\nSET\r\n"...)
		dst = appendBulk(dst, b)
		b = s.appendValue(b[:0], o.key, o.ver)
		dst = appendBulk(dst, b)
	}
	*scratch = b
	return dst
}
