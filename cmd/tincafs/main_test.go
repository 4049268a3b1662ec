package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestRun drives the shell on an L3-tiered stack through a write, a power
// failure and recovery, and checks it names the object store and reads
// the acknowledged write back.
func TestRun(t *testing.T) {
	in, err := os.CreateTemp(t.TempDir(), "stdin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.WriteString("put /a x\ncrash\nrecover\ncat /a\nquit\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	args, stdin, stdout := os.Args, os.Stdin, os.Stdout
	defer func() { os.Args, os.Stdin, os.Stdout = args, stdin, stdout }()
	os.Args = []string{"tincafs", "-l3"}
	os.Stdin, os.Stdout = in, w
	outc := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		outc <- string(b)
	}()
	main()
	w.Close()
	out := <-outc

	tier := strings.Index(out, "tiering: S3 object store")
	got := strings.Index(out, "tinca> x\n")
	if tier < 0 || got < tier {
		t.Fatalf("want the store name, then x; got:\n%s", out)
	}
}
