package server

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestListenerTimeouts: the daemon's listener drops a client that
// stalls inside its request headers, and does not mistake a keep-alive
// client that is merely slow between requests for one.
func TestListenerTimeouts(t *testing.T) {
	const readHeader = 150 * time.Millisecond
	hs := newHTTPServer(New(Options{}).Handler(), readHeader, 30*time.Second)
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("a streamed sweep outlives any WriteTimeout (%v) or ReadTimeout (%v)", hs.WriteTimeout, hs.ReadTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	body := string(mustJSON(t, RunRequest{Program: relayDSL}))
	request := "POST /v1/run HTTP/1.1\r\nHost: sysdl\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body

	// The stalling client never finishes its headers.
	stalled := dial()
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/run HTTP/1.1\r\nHost: sysdl\r\n"); err != nil {
		t.Fatal(err)
	}

	// The keep-alive client is served, idles for several header
	// timeouts, and is served again on the same connection.
	alive := dial()
	defer alive.Close()
	br := bufio.NewReader(alive)
	roundTrip := func(n int) {
		t.Helper()
		if _, err := io.WriteString(alive, request); err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(got), `"outcome":"completed"`) {
			t.Fatalf("request %d: status %d: %s", n, resp.StatusCode, got)
		}
	}
	roundTrip(1)
	time.Sleep(4 * readHeader)
	roundTrip(2)

	// By now the stalled connection is long past its header deadline:
	// the server has closed it, with a 408 or with nothing at all.
	reply, err := io.ReadAll(stalled)
	if err != nil {
		t.Fatalf("stalled client was not dropped: %v (read %q)", err, reply)
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 408") {
		t.Fatalf("stalled client was answered %q", reply)
	}
}
