package server

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/engine"
	"tierbase/internal/resp"
)

// The command table: everything the server knows about a command is its one
// row in commands, and dispatch (server.go) is the table's only reader.

// keySpec says where a command's keys sit in its arguments, which is also
// how dispatch routes it.
type keySpec uint8

const (
	keysNone       keySpec = iota // no key: runs on the connection goroutine
	keyFirst                      // args[1]: runs on the shard that owns it
	keysEvery                     // args[1:]: the owning shard when there is one key, else a fan-out
	keysEveryOther                // args[1], args[3], ...: key value pairs, routed the same way
)

// Handlers. args alias the connection's parse buffers: safe to read for
// the duration of the call (execution is synchronous), copied by any layer
// that retains them. A shardFn or mutateFn appends its reply to out; when
// it returns an error, whatever it appended is dropped for the error reply.
type (
	// connFn runs on the connection goroutine and appends to c.out.
	connFn func(s *Server, c *conn, args [][]byte)
	// shardFn runs on a worker of the shard that owns key.
	shardFn func(sh *shard, key string, args [][]byte, out []byte) ([]byte, error)
	// mutateFn is an in-place engine mutation of key. It runs inside
	// cache.Tiered.Mutate, which warms the key first, holds its RMW stripe
	// lock around the call and, when changed is reported, commits the key's
	// resulting state to the storage tier and the replication sink.
	mutateFn func(eng *engine.Engine, key string, args [][]byte, out []byte) (reply []byte, changed bool, err error)
)

// command is one row of the table.
type command struct {
	name    string   // canonical, upper case
	aliases []string // other names clients may use
	// arity counts the arguments, name included, Redis style: n is exactly
	// n, -n is n or more.
	arity int
	// write marks a command that mutates state: refused with -OVERLOADED
	// above the high watermark and with -MOVED on a replica, and held for
	// replica acks under semi-sync.
	write bool
	keys  keySpec
	// warm faults the key in from the storage tier before shard runs, for
	// reads that go to the engine directly.
	warm bool
	// conn serves a keyless command, and the multi-key form of a keysEvery
	// or keysEveryOther one. A keyed command's single-key form is shard, or
	// mutate when it is an in-place engine mutation.
	conn   connFn
	shard  shardFn
	mutate mutateFn
}

var commands = []*command{
	{name: "PING", arity: 1, conn: cmdPing},
	{name: "ECHO", arity: 2, conn: cmdEcho},
	{name: "DBSIZE", arity: 1, conn: cmdDBSize},
	{name: "FLUSHALL", arity: -1, write: true, conn: cmdFlushAll},
	{name: "INFO", arity: -1, conn: cmdInfo},
	{name: "SYNC", arity: 3, conn: replOnly((*serverRepl).cmdSync)},
	{name: "REPLICAOF", aliases: []string{"SLAVEOF"}, arity: 3, conn: replOnly((*serverRepl).cmdReplicaof)},
	{name: "CLUSTER", arity: -2, conn: replOnly((*serverRepl).cmdCluster)},

	{name: "GET", arity: 2, keys: keyFirst, shard: cmdGet},
	{name: "SET", arity: 3, write: true, keys: keyFirst, shard: cmdSet},
	{name: "MGET", arity: -2, keys: keysEvery, conn: cmdMGet, shard: cmdMGetOne},
	{name: "MSET", arity: -3, write: true, keys: keysEveryOther, conn: cmdMSet, shard: cmdSet},
	{name: "DEL", aliases: []string{"UNLINK"}, arity: -2, write: true, keys: keysEvery, conn: cmdDel, shard: cmdDelOne},
	{name: "EXISTS", arity: 2, keys: keyFirst, warm: true, shard: cmdExists},
	{name: "TYPE", arity: 2, keys: keyFirst, warm: true, shard: cmdType},
	{name: "SETNX", arity: 3, write: true, keys: keyFirst, mutate: cmdSetNX},
	{name: "INCR", arity: 2, write: true, keys: keyFirst, mutate: incrBy(1, false)},
	{name: "DECR", arity: 2, write: true, keys: keyFirst, mutate: incrBy(-1, false)},
	{name: "INCRBY", arity: 3, write: true, keys: keyFirst, mutate: incrBy(1, true)},
	{name: "DECRBY", arity: 3, write: true, keys: keyFirst, mutate: incrBy(-1, true)},
	// CAS key oldval newval — the paper's compare-and-set extension.
	{name: "CAS", arity: 4, write: true, keys: keyFirst, mutate: cmdCAS},
	// EXPIRE and PERSIST warm the key inside the tiered store.
	{name: "EXPIRE", arity: 3, write: true, keys: keyFirst, shard: cmdExpire},
	{name: "TTL", arity: 2, keys: keyFirst, warm: true, shard: cmdTTL},
	{name: "PERSIST", arity: 2, write: true, keys: keyFirst, shard: cmdPersist},

	{name: "LPUSH", arity: -3, write: true, keys: keyFirst, mutate: push((*engine.Engine).LPush)},
	{name: "RPUSH", arity: -3, write: true, keys: keyFirst, mutate: push((*engine.Engine).RPush)},
	{name: "LPOP", arity: 2, write: true, keys: keyFirst, mutate: pop((*engine.Engine).LPop)},
	{name: "RPOP", arity: 2, write: true, keys: keyFirst, mutate: pop((*engine.Engine).RPop)},
	{name: "LLEN", arity: 2, keys: keyFirst, warm: true, shard: count((*engine.Engine).LLen)},
	{name: "LRANGE", arity: 4, keys: keyFirst, warm: true, shard: cmdLRange},

	{name: "SADD", arity: -3, write: true, keys: keyFirst, mutate: members((*engine.Engine).SAdd)},
	{name: "SREM", arity: -3, write: true, keys: keyFirst, mutate: members((*engine.Engine).SRem)},
	{name: "SISMEMBER", arity: 3, keys: keyFirst, warm: true, shard: cmdSIsMember},
	{name: "SCARD", arity: 2, keys: keyFirst, warm: true, shard: count((*engine.Engine).SCard)},
	{name: "SMEMBERS", arity: 2, keys: keyFirst, warm: true, shard: cmdSMembers},

	{name: "ZADD", arity: 4, write: true, keys: keyFirst, mutate: cmdZAdd},
	{name: "ZSCORE", arity: 3, keys: keyFirst, warm: true, shard: cmdZScore},
	{name: "ZREM", arity: 3, write: true, keys: keyFirst, mutate: cmdZRem},
	{name: "ZCARD", arity: 2, keys: keyFirst, warm: true, shard: count((*engine.Engine).ZCard)},
	{name: "ZRANGE", arity: -4, keys: keyFirst, warm: true, shard: cmdZRange},

	{name: "HSET", arity: 4, write: true, keys: keyFirst, mutate: cmdHSet},
	{name: "HGET", arity: 3, keys: keyFirst, warm: true, shard: cmdHGet},
	{name: "HDEL", arity: -3, write: true, keys: keyFirst, mutate: members((*engine.Engine).HDel)},
	{name: "HLEN", arity: 2, keys: keyFirst, warm: true, shard: count((*engine.Engine).HLen)},
	{name: "HGETALL", arity: 2, keys: keyFirst, warm: true, shard: cmdHGetAll},
}

// commandTable indexes commands by every name a client may use.
var commandTable = func() map[string]*command {
	m := make(map[string]*command, len(commands))
	for _, cmd := range commands {
		m[cmd.name] = cmd
		for _, alias := range cmd.aliases {
			m[alias] = cmd
		}
	}
	return m
}()

// lookupCommand finds the command a client's token names, in any letter
// case, without allocating: the token upper-cases into scratch, and a map
// index by string(b) is compiled to read b's bytes in place — no string is
// built for it. nil when the token names no command (or is overlong).
func lookupCommand(tok []byte, scratch *[16]byte) *command {
	if len(tok) > len(scratch) {
		return nil
	}
	b := scratch[:len(tok)]
	for i, ch := range tok {
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		b[i] = ch
	}
	return commandTable[string(b)]
}

// arityOK checks an argument count (name included) against the command's
// arity and, for key value pairs, that no key lacks its value.
func (cmd *command) arityOK(n int) bool {
	if cmd.keys == keysEveryOther && n%2 == 0 {
		return false
	}
	if cmd.arity > 0 {
		return n == cmd.arity
	}
	return n >= -cmd.arity
}

func appendArityError(out []byte, cmd *command) []byte {
	return resp.AppendError(out, "wrong number of arguments for '"+strings.ToLower(cmd.name)+"'")
}

// maxEchoedName caps how much of an unknown command's name the error
// repeats back.
const maxEchoedName = 64

// appendUnknownCommand is the error for a name the table does not hold. The
// name is the client's bytes: it is cut at maxEchoedName and its control
// bytes are escaped, so a CR LF inside it cannot end the error line early
// and pass the rest off as a second reply.
func appendUnknownCommand(out, name []byte) []byte {
	out = append(out, "-ERR unknown command '"...)
	for i, ch := range name {
		if i == maxEchoedName {
			out = append(out, "..."...)
			break
		}
		if ch < ' ' || ch >= 0x7f {
			const hex = "0123456789abcdef"
			out = append(out, '\\', 'x', hex[ch>>4], hex[ch&0xf])
		} else {
			out = append(out, ch)
		}
	}
	return append(out, "'\r\n"...)
}

const (
	errNotInteger = "value is not an integer or out of range"
	errSyntax     = "syntax error"
)

func notFoundish(err error) bool {
	return errors.Is(err, engine.ErrNotFound) || errors.Is(err, cache.ErrNotFound)
}

func appendBool(out []byte, v bool) []byte {
	if v {
		return resp.AppendInt(out, 1)
	}
	return resp.AppendInt(out, 0)
}

// appendBulkArray renders values (nil = absent) as an array of bulks.
func appendBulkArray(out []byte, vals [][]byte) []byte {
	out = resp.AppendArrayLen(out, len(vals))
	for _, v := range vals {
		out = resp.AppendBulk(out, v)
	}
	return out
}

// stringsAt copies args[i] for each i in idxs out of the parse buffers.
func stringsAt(args [][]byte, idxs []int) []string {
	out := make([]string, len(idxs))
	for j, i := range idxs {
		out[j] = string(args[i])
	}
	return out
}

// stringsFrom copies args out of the parse buffers.
func stringsFrom(args [][]byte) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = string(a)
	}
	return out
}

// parseRange reads the start and stop of LRANGE and ZRANGE.
func parseRange(args [][]byte) (start, stop int, ok bool) {
	start, err1 := strconv.Atoi(string(args[2]))
	stop, err2 := strconv.Atoi(string(args[3]))
	return start, stop, err1 == nil && err2 == nil
}

// --- keyless commands ---

func cmdPing(_ *Server, c *conn, _ [][]byte) { c.out = resp.AppendSimple(c.out, "PONG") }

func cmdEcho(_ *Server, c *conn, args [][]byte) { c.out = resp.AppendBulk(c.out, args[1]) }

func cmdDBSize(s *Server, c *conn, _ [][]byte) {
	var n int64
	for _, sh := range s.shards {
		n += int64(sh.eng.Len())
	}
	c.out = resp.AppendInt(c.out, n)
}

// cmdFlushAll clears every shard through its tiered store: clearing only
// the cache tier would let flushed keys resurrect from storage on their
// next miss (and the clear must replicate).
func cmdFlushAll(s *Server, c *conn, _ [][]byte) {
	for _, sh := range s.shards {
		if err := sh.tiered.FlushAll(); err != nil {
			c.out = resp.AppendError(c.out, err.Error())
			return
		}
	}
	c.out = resp.AppendSimple(c.out, "OK")
}

func cmdInfo(s *Server, c *conn, args [][]byte) {
	if len(args) > 2 {
		c.out = resp.AppendError(c.out, errSyntax)
		return
	}
	section := ""
	if len(args) == 2 {
		section = strings.ToLower(string(args[1]))
	}
	c.out = resp.AppendBulkString(c.out, s.info(section))
}

// replOnly adapts a replication command: to a server that runs without
// replication it is not a command.
func replOnly(fn func(r *serverRepl, c *conn, args [][]byte)) connFn {
	return func(s *Server, c *conn, args [][]byte) {
		if s.repl == nil {
			c.out = appendUnknownCommand(c.out, args[0])
			return
		}
		fn(s.repl, c, args)
	}
}

// --- multi-key commands: the fan-out form, then the single-key form ---

// cmdMGet serves multi-key MGET: each shard runs one batch get, replies
// reassemble in request order — the multi-key fan-out the paper's client
// batching relies on.
func cmdMGet(s *Server, c *conn, args [][]byte) {
	keyArgs := args[1:]
	vals := make([][]byte, len(keyArgs))
	err := s.fanOut(keyArgs, 1, func(sh *shard, idxs []int) error {
		keys := stringsAt(keyArgs, idxs)
		got, err := sh.tiered.BatchGet(keys)
		for j, i := range idxs {
			vals[i] = got[keys[j]]
		}
		return err
	})
	if err != nil {
		c.out = resp.AppendError(c.out, err.Error())
		return
	}
	c.out = appendBulkArray(c.out, vals)
}

// cmdMGetOne is single-key MGET (the client's GET vehicle): no fan-out, no
// per-key bookkeeping, and the batch path's element semantics — absent and
// wrong-typed keys report nil.
func cmdMGetOne(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	v, err := sh.tiered.Get(key)
	if err != nil && !notFoundish(err) && !errors.Is(err, engine.ErrWrongType) {
		return out, err
	}
	return resp.AppendBulk(resp.AppendArrayLen(out, 1), v), nil
}

// cmdMSet serves multi-pair MSET: each shard applies one batch put. A
// single pair is SET (both reply +OK).
func cmdMSet(s *Server, c *conn, args [][]byte) {
	kvArgs := args[1:]
	err := s.fanOut(kvArgs, 2, func(sh *shard, idxs []int) error {
		entries := make(map[string][]byte, len(idxs))
		for _, i := range idxs {
			// Copy out of the parse arena; keep empty values non-nil (nil
			// means delete in BatchPut, and MSET k "" must store "").
			val := make([]byte, len(kvArgs[i+1]))
			copy(val, kvArgs[i+1])
			entries[string(kvArgs[i])] = val
		}
		return sh.tiered.BatchPut(entries)
	})
	if err != nil {
		c.out = resp.AppendError(c.out, err.Error())
		return
	}
	c.out = resp.AppendSimple(c.out, "OK")
}

// cmdDel serves multi-key DEL/UNLINK: each shard runs one tiered
// BatchDelete, and the reply is the summed count of keys that existed in
// any tier.
func cmdDel(s *Server, c *conn, args [][]byte) {
	keyArgs := args[1:]
	var total atomic.Int64
	err := s.fanOut(keyArgs, 1, func(sh *shard, idxs []int) error {
		n, err := sh.tiered.BatchDelete(stringsAt(keyArgs, idxs))
		total.Add(int64(n))
		return err
	})
	if err != nil {
		c.out = resp.AppendError(c.out, err.Error())
		return
	}
	c.out = resp.AppendInt(c.out, total.Load())
}

func cmdDelOne(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	n, err := sh.tiered.BatchDelete([]string{key})
	return resp.AppendInt(out, int64(n)), err
}

// --- strings ---

func cmdGet(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	v, err := sh.tiered.Get(key)
	if notFoundish(err) {
		return resp.AppendBulk(out, nil), nil
	}
	return resp.AppendBulk(out, v), err
}

func cmdSet(sh *shard, key string, args [][]byte, out []byte) ([]byte, error) {
	return resp.AppendSimple(out, "OK"), sh.tiered.Set(key, args[2])
}

func cmdExists(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	return appendBool(out, sh.eng.Exists(key)), nil
}

func cmdType(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	return resp.AppendSimple(out, sh.eng.Type(key).String()), nil
}

func cmdSetNX(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
	created, err := eng.SetNX(key, args[2])
	return appendBool(out, created), created, err
}

// incrBy serves the four counters: sign is the direction, operand says
// whether args[2] gives the step.
func incrBy(sign int64, operand bool) mutateFn {
	return func(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
		delta := int64(1)
		if operand {
			var err error
			if delta, err = strconv.ParseInt(string(args[2]), 10, 64); err != nil {
				return resp.AppendError(out, errNotInteger), false, nil
			}
		}
		v, err := eng.IncrBy(key, sign*delta)
		return resp.AppendInt(out, v), err == nil, err
	}
}

func cmdCAS(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
	err := eng.CompareAndSet(key, args[2], args[3])
	if err == engine.ErrCASMismatch {
		return resp.AppendInt(out, 0), false, nil
	}
	return resp.AppendInt(out, 1), err == nil, err
}

// cmdExpire goes through the tiered store: the TTL replicates as an
// absolute deadline and expiry later deletes through to storage. A count of
// seconds whose deadline does not fit the nanosecond clock is refused:
// wrapped, it would land in the past and delete the key.
func cmdExpire(sh *shard, key string, args [][]byte, out []byte) ([]byte, error) {
	secs, err := strconv.ParseInt(string(args[2]), 10, 64)
	if err != nil {
		return resp.AppendError(out, errNotInteger), nil
	}
	now := time.Now().UnixNano()
	if max := (math.MaxInt64 - now) / int64(time.Second); secs > max || secs < -max {
		return resp.AppendError(out, "invalid expire time"), nil
	}
	return appendBool(out, sh.tiered.ExpireAt(key, now+secs*int64(time.Second))), nil
}

func cmdTTL(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	d, ok := sh.eng.TTL(key)
	switch {
	case ok:
		return resp.AppendInt(out, int64(d/time.Second)), nil
	case sh.eng.Exists(key):
		return resp.AppendInt(out, -1), nil
	default:
		return resp.AppendInt(out, -2), nil
	}
}

func cmdPersist(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	return appendBool(out, sh.tiered.Persist(key)), nil
}

// --- collections ---

// count serves LLEN, SCARD, ZCARD and HLEN.
func count(fn func(eng *engine.Engine, key string) (int, error)) shardFn {
	return func(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
		n, err := fn(sh.eng, key)
		return resp.AppendInt(out, int64(n)), err
	}
}

// push serves LPUSH and RPUSH.
func push(fn func(eng *engine.Engine, key string, vals ...[]byte) (int, error)) mutateFn {
	return func(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
		n, err := fn(eng, key, args[2:]...)
		return resp.AppendInt(out, int64(n)), err == nil, err
	}
}

// pop serves LPOP and RPOP. The pop that empties the list deletes the key,
// which Mutate commits as a delete.
func pop(fn func(eng *engine.Engine, key string) ([]byte, error)) mutateFn {
	return func(eng *engine.Engine, key string, _ [][]byte, out []byte) ([]byte, bool, error) {
		v, err := fn(eng, key)
		if notFoundish(err) {
			return resp.AppendBulk(out, nil), false, nil
		}
		return resp.AppendBulk(out, v), err == nil, err
	}
}

// members serves SADD, SREM and HDEL: the reply counts the members (fields)
// added or removed, and none means nothing to commit.
func members(fn func(eng *engine.Engine, key string, members ...string) (int, error)) mutateFn {
	return func(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
		n, err := fn(eng, key, stringsFrom(args[2:])...)
		return resp.AppendInt(out, int64(n)), n > 0, err
	}
}

func cmdLRange(sh *shard, key string, args [][]byte, out []byte) ([]byte, error) {
	start, stop, ok := parseRange(args)
	if !ok {
		return resp.AppendError(out, errNotInteger), nil
	}
	vals, err := sh.eng.LRange(key, start, stop)
	return appendBulkArray(out, vals), err
}

func cmdSIsMember(sh *shard, key string, args [][]byte, out []byte) ([]byte, error) {
	ok, err := sh.eng.SIsMember(key, string(args[2]))
	return appendBool(out, ok), err
}

func cmdSMembers(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	members, err := sh.eng.SMembers(key)
	out = resp.AppendArrayLen(out, len(members))
	for _, m := range members {
		out = resp.AppendBulkString(out, m)
	}
	return out, err
}

func cmdZAdd(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
	score, err := strconv.ParseFloat(string(args[2]), 64)
	if err != nil {
		return resp.AppendError(out, "value is not a valid float"), false, nil
	}
	// Changed even when the member is not new: its score may have moved.
	isNew, err := eng.ZAdd(key, string(args[3]), score)
	return appendBool(out, isNew), err == nil, err
}

func cmdZScore(sh *shard, key string, args [][]byte, out []byte) ([]byte, error) {
	sc, err := sh.eng.ZScore(key, string(args[2]))
	if notFoundish(err) {
		return resp.AppendBulk(out, nil), nil
	}
	return resp.AppendBulkString(out, strconv.FormatFloat(sc, 'g', -1, 64)), err
}

func cmdZRem(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
	removed, err := eng.ZRem(key, string(args[2]))
	return appendBool(out, removed), removed, err
}

func cmdZRange(sh *shard, key string, args [][]byte, out []byte) ([]byte, error) {
	start, stop, ok := parseRange(args)
	if !ok {
		return resp.AppendError(out, errNotInteger), nil
	}
	withScores := len(args) == 5 && strings.EqualFold(string(args[4]), "WITHSCORES")
	if len(args) > 4 && !withScores {
		return resp.AppendError(out, errSyntax), nil
	}
	members, err := sh.eng.ZRange(key, start, stop)
	n := len(members)
	if withScores {
		n *= 2
	}
	out = resp.AppendArrayLen(out, n)
	for _, m := range members {
		out = resp.AppendBulkString(out, m.Member)
		if withScores {
			out = resp.AppendBulkString(out, strconv.FormatFloat(m.Score, 'g', -1, 64))
		}
	}
	return out, err
}

func cmdHSet(eng *engine.Engine, key string, args [][]byte, out []byte) ([]byte, bool, error) {
	// Changed even when the field is not new: its value was replaced.
	isNew, err := eng.HSet(key, string(args[2]), args[3])
	return appendBool(out, isNew), err == nil, err
}

func cmdHGet(sh *shard, key string, args [][]byte, out []byte) ([]byte, error) {
	v, err := sh.eng.HGet(key, string(args[2]))
	if notFoundish(err) {
		return resp.AppendBulk(out, nil), nil
	}
	return resp.AppendBulk(out, v), err
}

func cmdHGetAll(sh *shard, key string, _ [][]byte, out []byte) ([]byte, error) {
	fields, err := sh.eng.HGetAll(key)
	out = resp.AppendArrayLen(out, len(fields)*2)
	for _, f := range fields {
		out = resp.AppendBulkString(out, f.Field)
		out = resp.AppendBulk(out, f.Value)
	}
	return out, err
}
