package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"

	"tierbase/internal/cache"
	"tierbase/internal/engine"
)

// readRawReply reads one RESP reply and returns its bytes as received.
func readRawReply(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if line[0] != '$' && line[0] != '*' {
		return line, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(line[1:]))
	if err != nil || n < 0 {
		return line, err // nil bulk / nil array
	}
	if line[0] == '$' {
		body := make([]byte, n+2)
		_, err := io.ReadFull(br, body)
		return line + string(body), err
	}
	for i := 0; i < n; i++ {
		el, err := readRawReply(br)
		if err != nil {
			return "", err
		}
		line += el
	}
	return line, nil
}

// TestRepliesAcrossPolicies: a command's reply does not depend on the
// deployment shape. The same script against cache-only, write-through and
// write-back servers, at one and two shards, yields byte-identical RESP.
func TestRepliesAcrossPolicies(t *testing.T) {
	script := []string{
		"SET k1 v1", "GET k1", "GET missing",
		"MSET a 1 b 2 c 3 d 4 e 5", "MGET a b c d e missing", "DEL a b missing", "MGET a b c",
		"SETNX nx 1", "SETNX nx 2", "INCRBY n 5", "INCRBY n 5", "GET n",
		"CAS k1 v1 v2", "CAS k1 v1 v3", "GET k1",
		"EXPIRE k1 1000", "TTL k1", "PERSIST k1", "TTL k1", "TTL missing",
		"RPUSH l x y", "LRANGE l 0 -1",
		"SADD s m", "SMEMBERS s",
		"ZADD z 1.5 m", "ZRANGE z 0 -1 WITHSCORES",
		"HSET h f v", "HGETALL h",
		"TYPE l", "GET l", "DBSIZE",
		"FLUSHALL", "DBSIZE", "GET k1", "MGET c d",
	}
	run := func(t *testing.T, cfg Config) []string {
		srv, _ := startTestServer(t, cfg)
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		replies := make([]string, len(script))
		for i, cmd := range script {
			if _, err := fmt.Fprintf(nc, "%s\r\n", cmd); err != nil {
				t.Fatal(err)
			}
			if replies[i], err = readRawReply(br); err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
		}
		return replies
	}
	var want []string
	for _, policy := range []cache.Policy{cache.CacheOnly, cache.WriteThrough, cache.WriteBack} {
		for _, shards := range []int{1, 2} {
			policy := policy
			cfg := Config{Shards: shards}
			if policy != cache.CacheOnly {
				cfg.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
					return cache.New(cache.Options{Policy: policy, Engine: eng, Storage: cache.NewMapStorage()})
				}
			}
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				got := run(t, cfg)
				if want == nil {
					want = got
					// Pin the reference transcript to the protocol, not only
					// the transcripts to each other.
					if want[5] != ":2\r\n" || want[6] != "*3\r\n$-1\r\n$-1\r\n$1\r\n3\r\n" {
						t.Fatalf("reference replies off: DEL %q, MGET %q", want[5], want[6])
					}
					return
				}
				for i, cmd := range script {
					if got[i] != want[i] {
						t.Errorf("%s: reply %q, want %q", cmd, got[i], want[i])
					}
				}
			})
		}
	}
}
