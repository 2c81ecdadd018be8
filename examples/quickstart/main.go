// Quickstart: an embedded TierBase store in a few lines — basic KV
// operations, read-modify-write, CAS, TTLs, the data-structure surface and
// values offloaded to persistent memory.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"tierbase"
)

func main() {
	// Values of 64 B or more go to a simulated 1 MiB PMem arena (paper
	// §4.3); smaller ones stay in DRAM.
	store, err := tierbase.Open(tierbase.Options{PMemBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Strings.
	if err := store.Set("greeting", []byte("hello, tierbase")); err != nil {
		log.Fatal(err)
	}
	v, err := store.Get("greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET greeting = %q\n", v)

	// Read-modify-write.
	store.Update("greeting", func(old []byte, exists bool) []byte {
		return append(old, '!')
	})
	v, _ = store.Get("greeting")
	fmt.Printf("after update = %q\n", v)

	// Compare-and-set (the paper's CAS extension).
	if err := store.CompareAndSet("greeting", v, []byte("replaced")); err != nil {
		log.Fatal(err)
	}
	if err := store.CompareAndSet("greeting", []byte("stale"), []byte("x")); err == tierbase.ErrCASMismatch {
		fmt.Println("stale CAS correctly rejected")
	}

	// Counters and TTLs.
	n, _ := store.IncrBy("visits", 1)
	fmt.Printf("visits = %d\n", n)
	store.Expire("visits", time.Hour)

	// Batch API: many keys in one pass through the lock-striped engine.
	if err := store.MSet(map[string][]byte{
		"profile:1": []byte("alice"),
		"profile:2": []byte("bob"),
	}); err != nil {
		log.Fatal(err)
	}
	users, _ := store.MGet("profile:1", "profile:2", "profile:3")
	fmt.Printf("MGET profile:1=%q profile:2=%q profile:3 present=%v\n",
		users["profile:1"], users["profile:2"], users["profile:3"] != nil)

	// Advanced data structures via the engine.
	eng := store.Engine()
	eng.RPush("queue", []byte("job-1"), []byte("job-2"))
	job, _ := eng.LPop("queue")
	fmt.Printf("popped %q\n", job)
	eng.ZAdd("leaderboard", "alice", 42)
	eng.ZAdd("leaderboard", "bob", 17)
	top, _ := eng.ZRange("leaderboard", 0, -1)
	fmt.Printf("leaderboard: %v\n", top)
	eng.HSet("user:1", "name", []byte("Wei"))
	name, _ := eng.HGet("user:1", "name")
	fmt.Printf("user:1 name = %q\n", name)

	// A value large enough for the PMem arena.
	if err := store.Set("doc:1", []byte(strings.Repeat("tierbase ", 16))); err != nil {
		log.Fatal(err)
	}

	st := store.Stats()
	fmt.Printf("stats: %d keys, %d B cache, %d B PMem\n", st.Keys, st.CacheMemBytes, st.PMemBytes)
}
