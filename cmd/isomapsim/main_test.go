package main

import (
	"flag"
	"io"
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
