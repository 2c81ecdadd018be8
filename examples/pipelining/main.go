// Auto-pipelining: 64 goroutines share ONE multiplexed connection to an
// in-process tierbase-server. Concurrent requests drain to the wire in
// shared flush windows, and same-window single-key GETs coalesce into
// MGETs — watch the mux counters: far fewer wire commands and flushes
// (≈ round trips) than requests.
package main

import (
	"fmt"
	"log"
	"sync"

	"tierbase/internal/client"
	"tierbase/internal/server"
)

func main() {
	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	c, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Seed a keyspace with one batched MSET.
	const keys = 256
	pairs := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		pairs[fmt.Sprintf("user:%03d", i)] = fmt.Sprintf("profile-%03d", i)
	}
	if err := c.MSet(pairs); err != nil {
		log.Fatal(err)
	}

	// 64 concurrent readers on the one connection. No batching in the
	// caller's code — each goroutine makes plain single-key Gets; the
	// client's drain windows do the batching.
	const goroutines = 64
	const opsEach = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := fmt.Sprintf("user:%03d", (g*opsEach+i)%keys)
				v, err := c.Get(k)
				if err != nil {
					log.Fatalf("get %s: %v", k, err)
				}
				if want := "profile-" + k[len("user:"):]; v != want {
					log.Fatalf("get %s: got %q, want %q", k, v, want)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	fmt.Printf("requests:        %d\n", st.Requests)
	fmt.Printf("wire commands:   %d (gets coalesced into MGETs: %d)\n", st.WireCommands, st.CoalescedGets)
	fmt.Printf("flushes:         %d\n", st.Flushes)
	if st.Flushes > 0 {
		fmt.Printf("avg drain window: %.1f requests per flush (≈ %.0fx fewer round trips)\n",
			float64(st.Requests)/float64(st.Flushes),
			float64(st.Requests)/float64(st.Flushes))
	}
}
