package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server exposes a Store over TCP speaking a RESP subset (the Redis
// wire protocol), so the middleware/UI side of the architecture can be
// pointed at it exactly as it would be at Redis.
//
// Supported commands: PING, ECHO, SET [EX seconds], GET, DEL, EXISTS,
// EXPIRE, TTL, KEYS, DBSIZE, HSET, HMSET, HGET, HGETALL, HDEL, HLEN, ZADD,
// ZSCORE, ZREM, ZCARD, ZRANGEBYSCORE, PUBLISH, SUBSCRIBE.
type Server struct {
	store *Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps a store; call Serve or ListenAndServe to start.
func NewServer(store *Store) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{})}
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:6379") and serves
// until Close. It returns the bound address via Addr once listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("kvstore: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		if len(args) == 0 {
			continue
		}
		if strings.EqualFold(args[0], "SUBSCRIBE") {
			s.serveSubscription(conn, w, args[1:])
			return
		}
		s.dispatch(w, args)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Protocol limits: a hostile length header must not make the server
// pre-allocate unbounded memory (Redis enforces similar caps).
const (
	maxCommandArgs = 1024
	maxBulkBytes   = 8 << 20
)

// readCommand parses one RESP array of bulk strings, also accepting
// inline space-separated commands (like redis-cli's inline mode).
func readCommand(r *bufio.Reader) ([]string, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, nil
	}
	if line[0] != '*' {
		return strings.Fields(line), nil
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 0 || n > maxCommandArgs {
		return nil, fmt.Errorf("kvstore: bad array header %q", line)
	}
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, fmt.Errorf("kvstore: expected bulk string, got %q", hdr)
		}
		l, err := strconv.Atoi(hdr[1:])
		if err != nil || l < 0 || l > maxBulkBytes {
			return nil, fmt.Errorf("kvstore: bad bulk length %q", hdr)
		}
		buf := make([]byte, l+2)
		if _, err := readFull(r, buf); err != nil {
			return nil, err
		}
		args = append(args, string(buf[:l]))
	}
	return args, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func writeSimple(w *bufio.Writer, s string) { fmt.Fprintf(w, "+%s\r\n", s) }
func writeError(w *bufio.Writer, s string)  { fmt.Fprintf(w, "-ERR %s\r\n", s) }
func writeInt(w *bufio.Writer, n int64)     { fmt.Fprintf(w, ":%d\r\n", n) }
func writeBulk(w *bufio.Writer, s string)   { fmt.Fprintf(w, "$%d\r\n%s\r\n", len(s), s) }
func writeNil(w *bufio.Writer)              { w.WriteString("$-1\r\n") }
func writeArrayHeader(w *bufio.Writer, n int) {
	fmt.Fprintf(w, "*%d\r\n", n)
}

func (s *Server) dispatch(w *bufio.Writer, args []string) {
	cmd := strings.ToUpper(args[0])
	switch cmd {
	case "PING":
		writeSimple(w, "PONG")
	case "ECHO":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for ECHO")
			return
		}
		writeBulk(w, args[1])
	case "SET":
		if len(args) != 3 && !(len(args) == 5 && strings.EqualFold(args[3], "EX")) {
			writeError(w, "syntax: SET key value [EX seconds]")
			return
		}
		if len(args) == 5 {
			secs, err := strconv.Atoi(args[4])
			if err != nil || secs <= 0 {
				writeError(w, "invalid expire time")
				return
			}
			s.store.SetEx(args[1], args[2], time.Duration(secs)*time.Second)
		} else {
			s.store.Set(args[1], args[2])
		}
		writeSimple(w, "OK")
	case "GET":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for GET")
			return
		}
		v, ok, err := s.store.Get(args[1])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		if !ok {
			writeNil(w)
			return
		}
		writeBulk(w, v)
	case "DEL":
		if len(args) < 2 {
			writeError(w, "wrong number of arguments for DEL")
			return
		}
		writeInt(w, int64(s.store.Del(args[1:]...)))
	case "EXISTS":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for EXISTS")
			return
		}
		if s.store.Exists(args[1]) {
			writeInt(w, 1)
		} else {
			writeInt(w, 0)
		}
	case "EXPIRE":
		if len(args) != 3 {
			writeError(w, "wrong number of arguments for EXPIRE")
			return
		}
		secs, err := strconv.Atoi(args[2])
		if err != nil {
			writeError(w, "invalid expire time")
			return
		}
		if s.store.Expire(args[1], time.Duration(secs)*time.Second) {
			writeInt(w, 1)
		} else {
			writeInt(w, 0)
		}
	case "TTL":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for TTL")
			return
		}
		ttl, ok := s.store.TTL(args[1])
		switch {
		case !ok:
			writeInt(w, -2)
		case ttl < 0:
			writeInt(w, -1)
		default:
			writeInt(w, int64(ttl.Seconds()))
		}
	case "KEYS":
		keys := s.store.Keys()
		writeArrayHeader(w, len(keys))
		for _, k := range keys {
			writeBulk(w, k)
		}
	case "DBSIZE":
		writeInt(w, int64(s.store.Len()))
	case "HSET":
		if len(args) != 4 {
			writeError(w, "wrong number of arguments for HSET")
			return
		}
		isNew, err := s.store.HSet(args[1], args[2], args[3])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		if isNew {
			writeInt(w, 1)
		} else {
			writeInt(w, 0)
		}
	case "HMSET":
		// HMSET key field value [field value ...] — the batched form the
		// writer actors use internally; replies with the new-field count.
		if len(args) < 4 || len(args)%2 != 0 {
			writeError(w, "wrong number of arguments for HMSET")
			return
		}
		fields := make(map[string]string, (len(args)-2)/2)
		for i := 2; i < len(args); i += 2 {
			fields[args[i]] = args[i+1]
		}
		added, err := s.store.HSetMulti(args[1], fields)
		if err != nil {
			writeError(w, err.Error())
			return
		}
		writeInt(w, int64(added))
	case "HGET":
		if len(args) != 3 {
			writeError(w, "wrong number of arguments for HGET")
			return
		}
		v, ok, err := s.store.HGet(args[1], args[2])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		if !ok {
			writeNil(w)
			return
		}
		writeBulk(w, v)
	case "HGETALL":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for HGETALL")
			return
		}
		m, err := s.store.HGetAll(args[1])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		writeArrayHeader(w, len(m)*2)
		for f, v := range m {
			writeBulk(w, f)
			writeBulk(w, v)
		}
	case "HDEL":
		if len(args) < 3 {
			writeError(w, "wrong number of arguments for HDEL")
			return
		}
		n, err := s.store.HDel(args[1], args[2:]...)
		if err != nil {
			writeError(w, err.Error())
			return
		}
		writeInt(w, int64(n))
	case "HLEN":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for HLEN")
			return
		}
		n, err := s.store.HLen(args[1])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		writeInt(w, int64(n))
	case "ZADD":
		if len(args) != 4 {
			writeError(w, "wrong number of arguments for ZADD")
			return
		}
		score, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			writeError(w, "invalid score")
			return
		}
		isNew, err := s.store.ZAdd(args[1], score, args[3])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		if isNew {
			writeInt(w, 1)
		} else {
			writeInt(w, 0)
		}
	case "ZSCORE":
		if len(args) != 3 {
			writeError(w, "wrong number of arguments for ZSCORE")
			return
		}
		sc, ok, err := s.store.ZScore(args[1], args[2])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		if !ok {
			writeNil(w)
			return
		}
		writeBulk(w, strconv.FormatFloat(sc, 'g', -1, 64))
	case "ZREM":
		if len(args) < 3 {
			writeError(w, "wrong number of arguments for ZREM")
			return
		}
		n, err := s.store.ZRem(args[1], args[2:]...)
		if err != nil {
			writeError(w, err.Error())
			return
		}
		writeInt(w, int64(n))
	case "ZCARD":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for ZCARD")
			return
		}
		n, err := s.store.ZCard(args[1])
		if err != nil {
			writeError(w, err.Error())
			return
		}
		writeInt(w, int64(n))
	case "ZRANGEBYSCORE":
		if len(args) != 4 {
			writeError(w, "wrong number of arguments for ZRANGEBYSCORE")
			return
		}
		min, err1 := parseScoreBound(args[2])
		max, err2 := parseScoreBound(args[3])
		if err1 != nil || err2 != nil {
			writeError(w, "invalid score range")
			return
		}
		members, err := s.store.ZRangeByScore(args[1], min, max)
		if err != nil {
			writeError(w, err.Error())
			return
		}
		writeArrayHeader(w, len(members))
		for _, m := range members {
			writeBulk(w, m.Member)
		}
	case "PUBLISH":
		if len(args) != 3 {
			writeError(w, "wrong number of arguments for PUBLISH")
			return
		}
		writeInt(w, int64(s.store.Publish(args[1], args[2])))
	default:
		writeError(w, fmt.Sprintf("unknown command '%s'", args[0]))
	}
}

// parseScoreBound parses a ZRANGEBYSCORE bound, accepting the Redis
// infinity sentinels.
func parseScoreBound(s string) (float64, error) {
	switch s {
	case "-inf":
		return negInf, nil
	case "+inf", "inf":
		return posInf, nil
	}
	return strconv.ParseFloat(s, 64)
}

// serveSubscription switches the connection into subscriber mode: it
// confirms each channel and then pushes messages until the peer hangs
// up.
func (s *Server) serveSubscription(conn net.Conn, w *bufio.Writer, channels []string) {
	if len(channels) == 0 {
		writeError(w, "wrong number of arguments for SUBSCRIBE")
		w.Flush()
		return
	}
	merged := make(chan Message, 256)
	var cancels []func()
	for i, ch := range channels {
		sub, cancel := s.store.Subscribe(ch, 256)
		cancels = append(cancels, cancel)
		go func(c <-chan Message) {
			for m := range c {
				select {
				case merged <- m:
				default:
				}
			}
		}(sub)
		writeArrayHeader(w, 3)
		writeBulk(w, "subscribe")
		writeBulk(w, ch)
		writeInt(w, int64(i+1))
	}
	w.Flush()
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	// Detect client hang-up even while no messages flow.
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		case m := <-merged:
			writeArrayHeader(w, 3)
			writeBulk(w, "message")
			writeBulk(w, m.Channel)
			writeBulk(w, m.Payload)
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}
