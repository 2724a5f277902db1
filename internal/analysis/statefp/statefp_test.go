package statefp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module with one checkpointed type
// and a checkpoint package carrying the given Version. extraField is
// spliced into the struct to simulate schema drift.
func writeModule(t *testing.T, dir string, version int, extraField string) {
	t.Helper()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"internal/sim/checkpoint/checkpoint.go": "package checkpoint\n\nconst Version = " +
			itoa(version) + "\n",
		"state/state.go": `package state

type Core struct {
	Cycles uint64
	PC     uint64
` + extraField + `
	scratch int //simlint:ok checkpointcov rebuilt at construction
}

func (c *Core) SaveState() {}
func (c *Core) LoadState() {}
`,
	}
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func compute(t *testing.T, dir string) *Schema {
	t.Helper()
	s, err := Compute(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestComputeFindsCheckpointedTypes(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, 3, "")
	s := compute(t, dir)
	if s.Version != 3 {
		t.Fatalf("version = %d, want 3", s.Version)
	}
	ts, ok := s.Types["tmpmod/state.Core"]
	if !ok {
		t.Fatalf("tmpmod/state.Core not fingerprinted; have %v", s.Types)
	}
	// The exempted field is not part of the on-disk format.
	for _, f := range ts.Fields {
		if strings.Contains(f, "scratch") {
			t.Fatalf("exempted field in schema: %v", ts.Fields)
		}
	}
	if len(ts.Fields) != 2 {
		t.Fatalf("fields = %v, want [Cycles uint64, PC uint64]", ts.Fields)
	}
}

func TestDriftWithoutVersionBumpFails(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, 3, "")
	golden := compute(t, dir)

	// Add a field, keep the version: the gate must fire.
	writeModule(t, dir, 3, "\tRetired uint64")
	cur := compute(t, dir)
	problems := Diff(golden, cur)
	if len(problems) == 0 {
		t.Fatal("schema drift with unchanged Version passed the gate")
	}
	if !strings.Contains(problems[0], "without a checkpoint.Version bump") {
		t.Fatalf("wrong failure: %v", problems)
	}
}

func TestVersionBumpWithoutRegenFails(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, 3, "")
	golden := compute(t, dir)

	// Field added AND version bumped, but golden (computed before) is stale.
	writeModule(t, dir, 4, "\tRetired uint64")
	cur := compute(t, dir)
	problems := Diff(golden, cur)
	if len(problems) == 0 {
		t.Fatal("stale golden after Version bump passed the gate")
	}
	if !strings.Contains(problems[0], "not regenerated") {
		t.Fatalf("wrong failure: %v", problems)
	}
}

func TestBumpAndRegenPasses(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, 4, "\tRetired uint64")
	golden := compute(t, dir)
	cur := compute(t, dir)
	if problems := Diff(golden, cur); len(problems) != 0 {
		t.Fatalf("clean regen reported problems: %v", problems)
	}
}

func TestNestedStructChangePropagates(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, 3, "")
	// Core embeds a nested in-module struct type via a new file; changing
	// the nested type's fields must change Core's fingerprint even though
	// Core's own field list is unchanged.
	nested := filepath.Join(dir, "state", "nested.go")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(nested, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("package state\n\ntype ROB struct{ Head int }\n\ntype Wide struct {\n\tR ROB\n}\n\nfunc (w *Wide) SaveState() {}\nfunc (w *Wide) LoadState() {}\n")
	before := compute(t, dir).Types["tmpmod/state.Wide"]
	write("package state\n\ntype ROB struct {\n\tHead int\n\tTail int\n}\n\ntype Wide struct {\n\tR ROB\n}\n\nfunc (w *Wide) SaveState() {}\nfunc (w *Wide) LoadState() {}\n")
	after := compute(t, dir).Types["tmpmod/state.Wide"]
	if before.Fingerprint == after.Fingerprint {
		t.Fatal("nested struct field addition did not change the containing fingerprint")
	}
}

// TestRepoGolden is the checkpoint-schema gate: the committed golden
// must match the live schema, so `go test ./...` catches
// checkpoint-format drift.
func TestRepoGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	cur, err := Compute(root)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Load(filepath.Join(root, filepath.FromSlash(GoldenPath)))
	if err != nil {
		t.Fatalf("golden missing — run `go run ./cmd/statefp -write`: %v", err)
	}
	for _, p := range Diff(golden, cur) {
		t.Error(p)
	}
}
