package pipeline

import (
	"testing"

	"elfetch/internal/backend"
	"elfetch/internal/btb"
	"elfetch/internal/core"
)

// TestParseFront pins the one front-end parser the commands share: the
// seven names of elfsim's -front help, the spellings elfview's switch
// accepted, the report names it must round-trip, and the error arm.
func TestParseFront(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		want Config
	}{
		// elfsim -front: nodcf|dcf|lelf|retelf|indelf|condelf|uelf.
		{"nodcf", base.NoDCF()},
		{"dcf", base},
		{"lelf", base.WithVariant(core.LELF)},
		{"retelf", base.WithVariant(core.RETELF)},
		{"indelf", base.WithVariant(core.INDELF)},
		{"condelf", base.WithVariant(core.CONDELF)},
		{"uelf", base.WithVariant(core.UELF)},
		// elfview lower-cased its flag before switching on the same names.
		{"NoDCF", base.NoDCF()},
		{"NODCF", base.NoDCF()},
		{"DCF", base},
		{"LElf", base.WithVariant(core.LELF)},
		{"UELF", base.WithVariant(core.UELF)},
		{"CondElf", base.WithVariant(core.CONDELF)},
		// Report names, as Config.Name prints them.
		{"L-ELF", base.WithVariant(core.LELF)},
		{"RET-ELF", base.WithVariant(core.RETELF)},
		{"IND-ELF", base.WithVariant(core.INDELF)},
		{"COND-ELF", base.WithVariant(core.CONDELF)},
		{"U-ELF", base.WithVariant(core.UELF)},
	}
	for _, tc := range cases {
		got, err := ParseFront(tc.name)
		if err != nil {
			t.Errorf("ParseFront(%q): %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseFront(%q) = %s, want %s", tc.name, got.Name(), tc.want.Name())
		}
	}

	fronts := []Config{base.NoDCF(), base}
	for _, v := range core.Variants() {
		fronts = append(fronts, base.WithVariant(v))
	}
	if len(fronts) != 7 {
		t.Fatalf("%d front-ends, want 7", len(fronts))
	}
	for _, c := range fronts {
		got, err := ParseFront(c.Name())
		if err != nil || got != c {
			t.Errorf("ParseFront(%q) = %s, %v; want the config it was named from", c.Name(), got.Name(), err)
		}
	}

	for _, bad := range []string{"", "nope", "elf", "no-dcf-elf"} {
		if _, err := ParseFront(bad); err == nil {
			t.Errorf("ParseFront(%q) accepted an unknown front-end", bad)
		}
	}
}

// TestValidateBTBGeometry pins the BTB geometry rule: L0Entries is 0 (no
// L0, as the ablate experiment uses) or positive, and L1 and L2 need
// positive entries and ways, entries divisible by ways and a power-of-two
// set count, so that a mask finds the set, and no level holds more than
// btb.MaxEntries. btb.New builds every geometry Validate accepts and
// panics on every one it rejects within that bound; the geometries above
// it go through Validate only.
func TestValidateBTBGeometry(t *testing.T) {
	cases := []struct {
		name string
		edit func(*btb.Config)
		ok   bool
	}{
		{"default", func(*btb.Config) {}, true},
		{"no L0", func(c *btb.Config) { c.L0Entries = 0 }, true},
		{"odd L0", func(c *btb.Config) { c.L0Entries = 23 }, true},
		{"direct-mapped L1", func(c *btb.Config) { c.L1Ways = 1 }, true},
		{"one-set L2", func(c *btb.Config) { c.L2Entries, c.L2Ways = 8, 8 }, true},
		{"negative L0", func(c *btb.Config) { c.L0Entries = -1 }, false},
		{"zero L1 ways", func(c *btb.Config) { c.L1Ways = 0 }, false},
		{"negative L1 ways", func(c *btb.Config) { c.L1Ways = -4 }, false},
		{"zero L1 entries", func(c *btb.Config) { c.L1Entries = 0 }, false},
		{"48 L1 sets", func(c *btb.Config) { c.L1Entries = 192 }, false},
		{"L1 entries not divisible by ways", func(c *btb.Config) { c.L1Entries = 258 }, false},
		{"L1 ways above entries", func(c *btb.Config) { c.L1Entries, c.L1Ways = 4, 8 }, false},
		{"zero L2 entries", func(c *btb.Config) { c.L2Entries = 0 }, false},
		{"zero L2 ways", func(c *btb.Config) { c.L2Ways = 0 }, false},
		{"3 L2 sets", func(c *btb.Config) { c.L2Entries = 24 }, false},
		{"largest L0", func(c *btb.Config) { c.L0Entries = btb.MaxEntries }, true},
		{"largest L2", func(c *btb.Config) { c.L2Entries = btb.MaxEntries }, true},
		// Over the bound: Validate only, since btb.New would try to
		// allocate them (1<<34 L2 entries is about 1.2 TB).
		{"L0 above the bound", func(c *btb.Config) { c.L0Entries = btb.MaxEntries + 1 }, false},
		{"L1 above the bound", func(c *btb.Config) { c.L1Entries = 2 * btb.MaxEntries }, false},
		{"huge L2", func(c *btb.Config) { c.L2Entries = 1 << 34 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.edit(&c.BTB)
			err := c.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if max(c.BTB.L0Entries, c.BTB.L1Entries, c.BTB.L2Entries) > btb.MaxEntries {
				return
			}
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("btb.New panicked with %v; want a panic only for a rejected geometry", r)
				}
			}()
			btb.New(c.BTB)
		})
	}
}

// TestValidateBackend pins the back-end checks of Validate: a size, width,
// port count or latency that is not positive, a ROB above backend.MaxROB,
// a commit width above backend.MaxCommitWidth, a fetch width, FAQ depth or
// prefetch bound above MaxFetchWidth, MaxFAQSize or MaxPrefetches, and a
// negative MaxPrefetch are refused before pipeline.New sizes anything from
// them. The huge values go through Validate only: the rounding loop in
// backend.New would never end on a huge ROB, and the others would ask for
// more memory than a host has.
func TestValidateBackend(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"one-entry ROB", func(c *Config) { c.Backend.ROB = 1 }, true},
		{"largest ROB", func(c *Config) { c.Backend.ROB = backend.MaxROB }, true},
		{"no prefetch", func(c *Config) { c.MaxPrefetch = 0 }, true},
		{"negative ROB", func(c *Config) { c.Backend.ROB = -1 }, false},
		{"zero ROB", func(c *Config) { c.Backend.ROB = 0 }, false},
		{"ROB above the bound", func(c *Config) { c.Backend.ROB = backend.MaxROB + 1 }, false},
		{"huge ROB", func(c *Config) { c.Backend.ROB = 1<<62 + 1 }, false},
		{"zero IQ", func(c *Config) { c.Backend.IQ = 0 }, false},
		{"zero LSQ", func(c *Config) { c.Backend.LSQ = 0 }, false},
		{"zero rename width", func(c *Config) { c.Backend.RenameWidth = 0 }, false},
		{"zero commit width", func(c *Config) { c.Backend.CommitWidth = 0 }, false},
		{"negative commit width", func(c *Config) { c.Backend.CommitWidth = -1 }, false},
		{"zero ALU ports", func(c *Config) { c.Backend.ALUPorts = 0 }, false},
		{"zero MulDiv ports", func(c *Config) { c.Backend.MulDivPorts = 0 }, false},
		{"zero memory ports", func(c *Config) { c.Backend.MemPorts = 0 }, false},
		{"zero SIMD ports", func(c *Config) { c.Backend.SIMDPorts = 0 }, false},
		{"zero ALU latency", func(c *Config) { c.Backend.ALULat = 0 }, false},
		{"negative ALU latency", func(c *Config) { c.Backend.ALULat = -1 }, false},
		{"zero MulDiv latency", func(c *Config) { c.Backend.MulDivLat = 0 }, false},
		{"zero SIMD latency", func(c *Config) { c.Backend.SIMDLat = 0 }, false},
		{"zero AGU latency", func(c *Config) { c.Backend.AGULat = 0 }, false},
		{"zero branch latency", func(c *Config) { c.Backend.BranchLat = 0 }, false},
		{"negative MaxPrefetch", func(c *Config) { c.MaxPrefetch = -1 }, false},
		{"widest commit", func(c *Config) { c.Backend.CommitWidth = backend.MaxCommitWidth }, true},
		{"widest fetch", func(c *Config) { c.FetchWidth = MaxFetchWidth }, true},
		{"deepest FAQ", func(c *Config) { c.FAQSize = MaxFAQSize }, true},
		{"most prefetches", func(c *Config) { c.MaxPrefetch = MaxPrefetches }, true},
		{"commit width above the bound", func(c *Config) { c.Backend.CommitWidth = backend.MaxCommitWidth + 1 }, false},
		{"huge commit width", func(c *Config) { c.Backend.CommitWidth = 1 << 40 }, false},
		{"fetch group of three lines", func(c *Config) { c.FetchWidth = 18 }, false},
		{"huge fetch width", func(c *Config) { c.FetchWidth = 1 << 40 }, false},
		{"FAQ above the bound", func(c *Config) { c.FAQSize = MaxFAQSize + 1 }, false},
		{"huge FAQ", func(c *Config) { c.FAQSize = 1 << 40 }, false},
		{"MaxPrefetch above the bound", func(c *Config) { c.MaxPrefetch = MaxPrefetches + 1 }, false},
		{"huge MaxPrefetch", func(c *Config) { c.MaxPrefetch = 1 << 40 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.edit(&c)
			if err := c.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
