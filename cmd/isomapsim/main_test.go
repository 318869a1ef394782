package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// TestPacketFlagsNeedIsoMap checks that every packet-round flag is
// refused with a protocol that has no packet round, instead of being
// silently ignored.
func TestPacketFlagsNeedIsoMap(t *testing.T) {
	cases := []struct {
		flag string
		args []string
	}{
		{"packet", []string{"-packet"}},
		{"packet", []string{"-packet", "-loss", "0.2"}},
		{"loss", []string{"-loss", "0.2"}},
		{"burst", []string{"-burst", "0.5"}},
		{"crashfrac", []string{"-crashfrac", "0.05"}},
		{"shards", []string{"-shards", "4"}},
		{"workers", []string{"-workers", "2"}},
		{"roundtrace", []string{"-roundtrace", "-"}},
	}
	for _, proto := range []string{"tinydb", "inlr", "escan", "suppress"} {
		for _, c := range cases {
			fs := flag.NewFlagSet("isomapsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			args := append([]string{"-protocol", proto, "-nodes", "100", "-side", "10"}, c.args...)
			err := run(fs, args)
			if err == nil {
				t.Errorf("%v: nil error, want the packet flag refused", args)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "-"+c.flag) || !strings.Contains(msg, `"`+proto+`"`) {
				t.Errorf("%v: error %q does not name -%s and %q", args, msg, c.flag, proto)
			}
		}
	}
}

// TestPacketFlagsImplyPacket checks that a packet-round flag given with
// the default Iso-Map protocol runs the packet round instead of being
// silently ignored for want of -packet.
func TestPacketFlagsImplyPacket(t *testing.T) {
	for _, args := range [][]string{
		{"-loss", "0.2", "-crashfrac", "0.1"},
		{"-burst", "0.5"},
		{"-crashfrac", "0.05"},
		{"-shards", "4", "-workers", "1"},
	} {
		out := captureStdout(t, func() error {
			fs := flag.NewFlagSet("isomapsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			return run(fs, append([]string{"-nodes", "100", "-side", "10", "-res", "10"}, args...))
		})
		if !strings.Contains(out, "packet-level round") {
			t.Errorf("%v: no packet round in the output:\n%s", args, out)
		}
		if args[0] == "-loss" && !strings.Contains(out, "faults:") {
			t.Errorf("%v: packet round printed no fault line:\n%s", args, out)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it wrote, failing the test if fn fails.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
