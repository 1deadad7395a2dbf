package pipeline

import (
	"testing"

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
