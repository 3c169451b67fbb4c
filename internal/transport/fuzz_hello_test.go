package transport

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"venn/internal/server"
)

// fuzzHelloMaxPayload caps the fuzzed hello payload well below the server's
// MaxPayload, so every input reaches dispatch instead of the framing check.
const fuzzHelloMaxPayload = 4096

// FuzzHello writes an arbitrary payload as an OpHello frame, in a version 1
// or version 2 frame, to a fresh connection on a live server, followed by an
// OpPing on the same connection:
//
//  1. The hello is answered in the request's frame version, and the answer
//     is decided by the payload alone: a JSON HelloRequest offering 2 or
//     more gets exactly HelloResponse{Version: 2}; anything else gets a
//     CodeInvalid OpError — JSON in a v1 frame, binary in a v2 frame.
//  2. The ping after it is still answered: no hello payload wedges or
//     closes the connection.
//
// CI runs this with a short -fuzztime as a smoke pass; grow the corpus
// locally with `go test -fuzz=FuzzHello ./internal/transport/`.
func FuzzHello(f *testing.F) {
	for _, p := range []string{
		`{"max_version":2}`, `{"max_version":7}`, `{"max_version":1}`, `{"max_version":0}`,
		`{"max_version":-1}`, `{"max_version":"2"}`, `{"max_version":2.5}`, `{}`, `null`,
		`[]`, `not json`, ``, "\xff\x00",
	} {
		f.Add(Version1, []byte(p))
		f.Add(Version2, []byte(p))
	}
	m := server.NewManager(server.Config{})
	s := NewServer(m, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	f.Cleanup(func() { _ = s.Close() })
	addr := ln.Addr().String()

	f.Fuzz(func(t *testing.T, ver byte, payload []byte) {
		ver = Version1 + ver%2
		if len(payload) > fuzzHelloMaxPayload {
			payload = payload[:fuzzHelloMaxPayload]
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		bw := bufio.NewWriter(c)
		_ = WriteFrame(bw, ver, OpHello, 1, payload)
		_ = WriteFrame(bw, ver, OpPing, 2, nil)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		got := map[uint32]Frame{}
		for i := 0; i < 2; i++ {
			fr, err := ReadFrame(br, 1<<20)
			if err != nil {
				t.Fatalf("reading reply %d: %v", i, err)
			}
			got[fr.ID] = fr
		}
		if fr, ok := got[2]; !ok || fr.Op != OpPing|RespFlag {
			t.Fatalf("ping after hello %q: reply %+v", payload, fr)
		}
		fr, ok := got[1]
		if !ok || fr.Ver != ver {
			t.Fatalf("hello %q in a v%d frame: reply %+v", payload, ver, fr)
		}
		var req HelloRequest
		if json.Unmarshal(payload, &req) == nil && req.MaxVersion >= int(Version2) {
			var hr HelloResponse
			if fr.Op != OpHello|RespFlag || json.Unmarshal(fr.Payload, &hr) != nil || hr != (HelloResponse{Version: 2}) {
				t.Fatalf("hello %q: reply op %#x payload %q, want HelloResponse{Version: 2}", payload, fr.Op, fr.Payload)
			}
			return
		}
		if fr.Op != OpError {
			t.Fatalf("hello %q: reply op %#x, want OpError", payload, fr.Op)
		}
		var ep ErrorPayload
		if ver == Version2 {
			err = ep.UnmarshalBinary(fr.Payload)
		} else {
			err = json.Unmarshal(fr.Payload, &ep)
		}
		if err != nil || ep.Code != int(server.CodeInvalid) {
			t.Fatalf("hello %q: v%d error payload %q (%v), want CodeInvalid", payload, ver, fr.Payload, err)
		}
	})
}
