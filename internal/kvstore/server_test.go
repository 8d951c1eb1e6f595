package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// testClient is a minimal RESP client for exercising the server.
type testClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialServer(t *testing.T) (*Server, *testClient) {
	t.Helper()
	store := New()
	srv := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return srv, &testClient{conn: conn, r: bufio.NewReader(conn)}
}

func (c *testClient) cmd(t *testing.T, args ...string) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&sb, "$%d\r\n%s\r\n", len(a), a)
	}
	if _, err := c.conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
}

// reply reads one RESP reply and renders it as a debug string.
func (c *testClient) reply(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	line = strings.TrimRight(line, "\r\n")
	switch line[0] {
	case '+', '-', ':':
		return line
	case '$':
		var n int
		fmt.Sscanf(line[1:], "%d", &n)
		if n < 0 {
			return "(nil)"
		}
		buf := make([]byte, n+2)
		if _, err := readFull(c.r, buf); err != nil {
			t.Fatal(err)
		}
		return string(buf[:n])
	case '*':
		var n int
		fmt.Sscanf(line[1:], "%d", &n)
		parts := make([]string, 0, n)
		for i := 0; i < n; i++ {
			parts = append(parts, c.reply(t))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	t.Fatalf("unparseable reply %q", line)
	return ""
}

func TestServerPingEcho(t *testing.T) {
	_, c := dialServer(t)
	c.cmd(t, "PING")
	if got := c.reply(t); got != "+PONG" {
		t.Fatalf("ping = %q", got)
	}
	c.cmd(t, "ECHO", "hello world")
	if got := c.reply(t); got != "hello world" {
		t.Fatalf("echo = %q", got)
	}
}

func TestServerSetGetDel(t *testing.T) {
	_, c := dialServer(t)
	c.cmd(t, "SET", "k", "v with spaces")
	if got := c.reply(t); got != "+OK" {
		t.Fatalf("set = %q", got)
	}
	c.cmd(t, "GET", "k")
	if got := c.reply(t); got != "v with spaces" {
		t.Fatalf("get = %q", got)
	}
	c.cmd(t, "DEL", "k")
	if got := c.reply(t); got != ":1" {
		t.Fatalf("del = %q", got)
	}
	c.cmd(t, "GET", "k")
	if got := c.reply(t); got != "(nil)" {
		t.Fatalf("get deleted = %q", got)
	}
}

func TestServerSetEx(t *testing.T) {
	_, c := dialServer(t)
	c.cmd(t, "SET", "k", "v", "EX", "100")
	if got := c.reply(t); got != "+OK" {
		t.Fatalf("setex = %q", got)
	}
	c.cmd(t, "TTL", "k")
	got := c.reply(t)
	if !strings.HasPrefix(got, ":") || got == ":-1" || got == ":-2" {
		t.Fatalf("ttl = %q", got)
	}
	c.cmd(t, "TTL", "missing")
	if got := c.reply(t); got != ":-2" {
		t.Fatalf("ttl missing = %q", got)
	}
}

func TestServerHashCommands(t *testing.T) {
	_, c := dialServer(t)
	c.cmd(t, "HSET", "vessel:1", "lat", "37.9")
	if got := c.reply(t); got != ":1" {
		t.Fatalf("hset = %q", got)
	}
	c.cmd(t, "HSET", "vessel:1", "lon", "23.6")
	c.reply(t)
	c.cmd(t, "HGET", "vessel:1", "lat")
	if got := c.reply(t); got != "37.9" {
		t.Fatalf("hget = %q", got)
	}
	c.cmd(t, "HLEN", "vessel:1")
	if got := c.reply(t); got != ":2" {
		t.Fatalf("hlen = %q", got)
	}
	c.cmd(t, "HGETALL", "vessel:1")
	got := c.reply(t)
	if !strings.Contains(got, "lat") || !strings.Contains(got, "23.6") {
		t.Fatalf("hgetall = %q", got)
	}
}

func TestServerZSetCommands(t *testing.T) {
	_, c := dialServer(t)
	c.cmd(t, "ZADD", "ev", "10", "a")
	if got := c.reply(t); got != ":1" {
		t.Fatalf("zadd = %q", got)
	}
	c.cmd(t, "ZADD", "ev", "5", "b")
	c.reply(t)
	c.cmd(t, "ZADD", "ev", "20", "c")
	c.reply(t)
	c.cmd(t, "ZRANGEBYSCORE", "ev", "4", "15")
	if got := c.reply(t); got != "[b a]" {
		t.Fatalf("zrangebyscore = %q", got)
	}
	c.cmd(t, "ZRANGEBYSCORE", "ev", "-inf", "+inf")
	if got := c.reply(t); got != "[b a c]" {
		t.Fatalf("full range = %q", got)
	}
	c.cmd(t, "ZCARD", "ev")
	if got := c.reply(t); got != ":3" {
		t.Fatalf("zcard = %q", got)
	}
	c.cmd(t, "ZSCORE", "ev", "c")
	if got := c.reply(t); got != "20" {
		t.Fatalf("zscore = %q", got)
	}
}

func TestServerErrors(t *testing.T) {
	_, c := dialServer(t)
	c.cmd(t, "NOSUCH", "x")
	if got := c.reply(t); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("unknown command = %q", got)
	}
	c.cmd(t, "GET")
	if got := c.reply(t); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("bad arity = %q", got)
	}
	c.cmd(t, "SET", "k", "v")
	c.reply(t)
	c.cmd(t, "HGETALL", "k")
	if got := c.reply(t); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("wrong type = %q", got)
	}
}

func TestServerInlineCommands(t *testing.T) {
	_, c := dialServer(t)
	if _, err := c.conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := c.reply(t); got != "+PONG" {
		t.Fatalf("inline ping = %q", got)
	}
}

func TestServerPubSub(t *testing.T) {
	srv, sub := dialServer(t)
	sub.cmd(t, "SUBSCRIBE", "alerts")
	if got := sub.reply(t); !strings.Contains(got, "subscribe") {
		t.Fatalf("subscribe ack = %q", got)
	}
	// Publish from a second connection.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pub := &testClient{conn: conn, r: bufio.NewReader(conn)}
	deadline := time.Now().Add(2 * time.Second)
	for {
		pub.cmd(t, "PUBLISH", "alerts", "collision")
		if got := pub.reply(t); got == ":1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sub.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if got := sub.reply(t); !strings.Contains(got, "collision") {
		t.Fatalf("message = %q", got)
	}
}

func TestServerDBSizeAndKeys(t *testing.T) {
	_, c := dialServer(t)
	c.cmd(t, "SET", "a", "1")
	c.reply(t)
	c.cmd(t, "SET", "b", "2")
	c.reply(t)
	c.cmd(t, "DBSIZE")
	if got := c.reply(t); got != ":2" {
		t.Fatalf("dbsize = %q", got)
	}
	c.cmd(t, "KEYS")
	got := c.reply(t)
	if !strings.Contains(got, "a") || !strings.Contains(got, "b") {
		t.Fatalf("keys = %q", got)
	}
}

func TestServerManySequentialCommands(t *testing.T) {
	_, c := dialServer(t)
	for i := 0; i < 500; i++ {
		c.cmd(t, "SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		if got := c.reply(t); got != "+OK" {
			t.Fatalf("set %d = %q", i, got)
		}
	}
	c.cmd(t, "DBSIZE")
	if got := c.reply(t); got != ":500" {
		t.Fatalf("dbsize = %q", got)
	}
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}
