package engine

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestListPushPop(t *testing.T) {
	e := New(Options{})
	n, err := e.RPush("l", []byte("a"), []byte("b"))
	if err != nil || n != 2 {
		t.Fatalf("rpush: %d %v", n, err)
	}
	n, _ = e.LPush("l", []byte("z"))
	if n != 3 {
		t.Fatalf("lpush len %d", n)
	}
	v, _ := e.LPop("l")
	if string(v) != "z" {
		t.Fatalf("lpop %q", v)
	}
	v, _ = e.RPop("l")
	if string(v) != "b" {
		t.Fatalf("rpop %q", v)
	}
	if n, _ := e.LLen("l"); n != 1 {
		t.Fatalf("llen %d", n)
	}
}

func TestListEmptyKeyRemoved(t *testing.T) {
	e := New(Options{})
	e.RPush("l", []byte("only"))
	e.LPop("l")
	if e.Exists("l") {
		t.Fatal("empty list should be deleted")
	}
	if _, err := e.LPop("l"); err != ErrNotFound {
		t.Fatalf("pop empty: %v", err)
	}
	if n, _ := e.LLen("l"); n != 0 {
		t.Fatal("llen of absent should be 0")
	}
}

func TestLRange(t *testing.T) {
	e := New(Options{})
	for i := 0; i < 10; i++ {
		e.RPush("l", []byte(fmt.Sprintf("v%d", i)))
	}
	out, _ := e.LRange("l", 0, 2)
	if len(out) != 3 || string(out[0]) != "v0" || string(out[2]) != "v2" {
		t.Fatalf("range: %v", out)
	}
	out, _ = e.LRange("l", -3, -1)
	if len(out) != 3 || string(out[0]) != "v7" {
		t.Fatalf("negative range: %q", out[0])
	}
	out, _ = e.LRange("l", 5, 100)
	if len(out) != 5 {
		t.Fatalf("clamped range len %d", len(out))
	}
	out, _ = e.LRange("l", 8, 2)
	if out != nil {
		t.Fatal("inverted range should be empty")
	}
	out, _ = e.LRange("absent", 0, -1)
	if out != nil {
		t.Fatal("absent list should be empty")
	}
}

func TestSetOps(t *testing.T) {
	e := New(Options{})
	n, _ := e.SAdd("s", "a", "b", "a")
	if n != 2 {
		t.Fatalf("sadd added %d", n)
	}
	if ok, _ := e.SIsMember("s", "a"); !ok {
		t.Fatal("member missing")
	}
	if ok, _ := e.SIsMember("s", "zz"); ok {
		t.Fatal("phantom member")
	}
	if n, _ := e.SCard("s"); n != 2 {
		t.Fatalf("scard %d", n)
	}
	members, _ := e.SMembers("s")
	if len(members) != 2 || members[0] != "a" || members[1] != "b" {
		t.Fatalf("members %v", members)
	}
	n, _ = e.SRem("s", "a", "nope")
	if n != 1 {
		t.Fatalf("srem %d", n)
	}
	e.SRem("s", "b")
	if e.Exists("s") {
		t.Fatal("empty set should be deleted")
	}
}

func TestZSetBasics(t *testing.T) {
	e := New(Options{})
	isNew, _ := e.ZAdd("z", "alice", 10)
	if !isNew {
		t.Fatal("first add should be new")
	}
	isNew, _ = e.ZAdd("z", "alice", 20)
	if isNew {
		t.Fatal("update should not be new")
	}
	s, err := e.ZScore("z", "alice")
	if err != nil || s != 20 {
		t.Fatalf("score %f %v", s, err)
	}
	e.ZAdd("z", "bob", 5)
	e.ZAdd("z", "carol", 15)
	out, _ := e.ZRange("z", 0, -1)
	if len(out) != 3 || out[0].Member != "bob" || out[2].Member != "alice" {
		t.Fatalf("zrange %v", out)
	}
	out, _ = e.ZRangeByScore("z", 10, 20)
	if len(out) != 2 || out[0].Member != "carol" {
		t.Fatalf("zrangebyscore %v", out)
	}
	if n, _ := e.ZCard("z"); n != 3 {
		t.Fatalf("zcard %d", n)
	}
	ok, _ := e.ZRem("z", "bob")
	if !ok {
		t.Fatal("zrem existing")
	}
	ok, _ = e.ZRem("z", "bob")
	if ok {
		t.Fatal("zrem absent")
	}
	if _, err := e.ZScore("z", "bob"); err != ErrNotFound {
		t.Fatalf("removed member: %v", err)
	}
}

func TestZIncrBy(t *testing.T) {
	e := New(Options{})
	v, _ := e.ZIncrBy("z", "m", 2.5)
	if v != 2.5 {
		t.Fatalf("first incr %f", v)
	}
	v, _ = e.ZIncrBy("z", "m", 1.5)
	if v != 4 {
		t.Fatalf("second incr %f", v)
	}
	out, _ := e.ZRange("z", 0, -1)
	if len(out) != 1 || out[0].Score != 4 {
		t.Fatalf("zrange after incr %v", out)
	}
}

func TestZSetTieBreakByMember(t *testing.T) {
	e := New(Options{})
	e.ZAdd("z", "zeta", 1)
	e.ZAdd("z", "alpha", 1)
	out, _ := e.ZRange("z", 0, -1)
	if out[0].Member != "alpha" {
		t.Fatalf("tie-break order: %v", out)
	}
}

func TestZSetSortedInvariantProperty(t *testing.T) {
	f := func(ops []struct {
		M uint8
		S int8
	}) bool {
		e := New(Options{})
		for _, op := range ops {
			e.ZAdd("z", fmt.Sprintf("m%d", op.M%20), float64(op.S))
		}
		out, _ := e.ZRange("z", 0, -1)
		for i := 1; i < len(out); i++ {
			if out[i].Score < out[i-1].Score {
				return false
			}
			if out[i].Score == out[i-1].Score && out[i].Member < out[i-1].Member {
				return false
			}
		}
		n, _ := e.ZCard("z")
		return n == len(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHashOps(t *testing.T) {
	e := New(Options{})
	isNew, _ := e.HSet("h", "f1", []byte("v1"))
	if !isNew {
		t.Fatal("first hset")
	}
	isNew, _ = e.HSet("h", "f1", []byte("v1b"))
	if isNew {
		t.Fatal("overwrite hset")
	}
	e.HSet("h", "f2", []byte("v2"))
	v, _ := e.HGet("h", "f1")
	if string(v) != "v1b" {
		t.Fatalf("hget %q", v)
	}
	if _, err := e.HGet("h", "nope"); err != ErrNotFound {
		t.Fatalf("missing field: %v", err)
	}
	if n, _ := e.HLen("h"); n != 2 {
		t.Fatalf("hlen %d", n)
	}
	all, _ := e.HGetAll("h")
	if len(all) != 2 || all[0].Field != "f1" || all[1].Field != "f2" {
		t.Fatalf("hgetall %v", all)
	}
	n, _ := e.HDel("h", "f1", "ghost")
	if n != 1 {
		t.Fatalf("hdel %d", n)
	}
	e.HDel("h", "f2")
	if e.Exists("h") {
		t.Fatal("empty hash should be deleted")
	}
}

func TestWideColumnPattern(t *testing.T) {
	// Wide-column usage: row key -> column family of qualified columns.
	e := New(Options{})
	row := "user:42"
	e.HSet(row, "profile:name", []byte("Wei"))
	e.HSet(row, "profile:city", []byte("Hangzhou"))
	e.HSet(row, "stats:logins", []byte("17"))
	all, _ := e.HGetAll(row)
	if len(all) != 3 {
		t.Fatalf("columns: %d", len(all))
	}
	v, _ := e.HGet(row, "profile:city")
	if string(v) != "Hangzhou" {
		t.Fatalf("column read %q", v)
	}
}

func TestCollectionsMemAccounting(t *testing.T) {
	e := New(Options{})
	e.RPush("l", []byte("abc"))
	e.SAdd("s", "member")
	e.ZAdd("z", "m", 1)
	e.HSet("h", "f", []byte("v"))
	if e.MemUsed() <= 0 {
		t.Fatal("collections not accounted")
	}
	e.FlushAll()
	if e.MemUsed() != 0 {
		t.Fatalf("residue: %d", e.MemUsed())
	}
}

// TestCollectionChargesSurviveEncode builds each kind through the commands
// (duplicates, an overwrite with a shorter value, a re-score, pops and
// removes), then loads its blob into a fresh engine: both must charge the
// same bytes, as the commands and the decoder share one charge table.
func TestCollectionChargesSurviveEncode(t *testing.T) {
	build := map[string]func(e *Engine){
		"list": func(e *Engine) {
			e.RPush("k", []byte("alpha"), []byte(""), []byte("gamma-gamma"), []byte("alpha"))
			e.LPush("k", []byte("head"), []byte("h"))
			e.LPop("k")
			e.RPop("k")
		},
		"set": func(e *Engine) {
			e.SAdd("k", "a", "bb", "a", "cccc", "dd")
			e.SRem("k", "bb", "absent")
			e.SAdd("k", "cccc", "eeeee")
		},
		"zset": func(e *Engine) {
			e.ZAdd("k", "alice", 10)
			e.ZAdd("k", "bob", 5)
			e.ZAdd("k", "alice", 1)
			e.ZIncrBy("k", "carol", 2.5)
			e.ZIncrBy("k", "bob", 1)
			e.ZAdd("k", "dave", 7)
			e.ZRem("k", "dave")
		},
		"hash": func(e *Engine) {
			e.HSet("k", "f1", []byte("a-long-first-value"))
			e.HSet("k", "f2", []byte("v2"))
			e.HSet("k", "f1", []byte("short"))
			e.HSet("k", "f3", nil)
			e.HSet("k", "f4", []byte("gone"))
			e.HDel("k", "f4", "absent")
		},
	}
	for name, fill := range build {
		t.Run(name, func(t *testing.T) {
			e := New(Options{})
			fill(e)
			blob, enc, err := e.Encode("k")
			if err != nil || !enc {
				t.Fatalf("encode: %v %v", enc, err)
			}
			loaded := New(Options{})
			if err := loaded.LoadEncoded("k", blob); err != nil {
				t.Fatal(err)
			}
			if got, want := loaded.MemUsed(), e.MemUsed(); got != want {
				t.Fatalf("MemUsed: loaded %d, built %d", got, want)
			}
			if got, want := loaded.Stats().PayloadBytes, e.Stats().PayloadBytes; got != want {
				t.Fatalf("PayloadBytes: loaded %d, built %d", got, want)
			}
			for _, eng := range []*Engine{e, loaded} {
				if err := checkBooks(eng); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestNoEmptyCollection: a write that leaves a collection with no element
// leaves no key behind, and a blob that holds none is refused.
func TestNoEmptyCollection(t *testing.T) {
	e := New(Options{})
	e.LPush("l")
	e.RPush("r")
	e.SAdd("s")
	e.HDel("h", "f")
	e.SRem("absent", "m")
	if n := e.Len(); n != 0 {
		t.Fatalf("%d keys after writes that add nothing, l is %v", n, e.Type("l"))
	}
	if m := e.MemUsed(); m != 0 {
		t.Fatalf("%d bytes charged for no key", m)
	}
	for _, kind := range []Kind{KindList, KindSet, KindZSet, KindHash} {
		if err := e.LoadEncoded("k", []byte{typedMarker, byte(kind), 0}); err != ErrBadEncoding {
			t.Fatalf("empty %v blob: %v", kind, err)
		}
	}
	if n, m := e.Len(), e.MemUsed(); n != 0 || m != 0 {
		t.Fatalf("empty blobs left %d keys, %d bytes", n, m)
	}
}
