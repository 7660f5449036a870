package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/dp"
	"repro/internal/dpsql"
)

// shardedConfig is a tenant created under the sharded build.
func shardedConfig() TenantConfig {
	return TenantConfig{Epsilon: 4, Accounting: "pure", Shards: 4}
}

// checkImportHashPlaced imports a recovered table under the tenant's
// shard count and checks that every shard holds exactly the rows whose
// users hash to it (InsertShard on a fresh twin reports the hash route;
// the per-shard observer reports what each imported shard holds).
func checkImportHashPlaced(t *testing.T, tb dpsql.TableState, shards int) {
	t.Helper()
	db := dpsql.NewDB()
	db.SetDefaultShards(shards)
	tab, err := db.Import(tb)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := dpsql.NewDB().CreateSharded("twin", tb.Columns, tb.UserCol, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, shards)
	for _, r := range tb.Rows {
		si, err := twin.InsertShard(r...)
		if err != nil {
			t.Fatal(err)
		}
		want[si]++
	}
	got := make([]int, shards)
	if _, err := tab.UserMeans("v", func(shard, rows int, _ time.Duration) { got[shard] = rows }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows per shard after import %v, want hash placement %v", got, want)
	}
}

// TestShardTaggedReplay: shard-tagged rows records (written by older
// builds) recover in record order, interleaved with untagged ones, and
// the tags are ignored: Import puts every user in its hash shard.
func TestShardTaggedReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	schema := eventsSchema()
	schema.Shards = 4
	if err := tl.AppendTable(schema); err != nil {
		t.Fatal(err)
	}
	// Batches land per shard, in record order: 2 rows to shard 0 (tag
	// omitted on the wire), 1 to shard 2, 1 to shard 1.
	if err := tl.AppendRows("events", 0, [][]dpsql.Value{row("u1", 1), row("u2", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 2, [][]dpsql.Value{row("u3", 3)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 1, [][]dpsql.Value{row("u4", 4)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if rec.Config.Shards != 4 {
		t.Fatalf("recovered config shards = %d", rec.Config.Shards)
	}
	tb := rec.Tables[0]
	if tb.Shards != 4 {
		t.Fatalf("recovered table shards = %d", tb.Shards)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("recovered %d rows", len(tb.Rows))
	}
	if want := [][]dpsql.Value{row("u1", 1), row("u2", 2), row("u3", 3), row("u4", 4)}; !reflect.DeepEqual(tb.Rows, want) {
		t.Fatalf("recovered rows %v, want record order %v", tb.Rows, want)
	}
	checkImportHashPlaced(t, tb, rec.Config.Shards)
	if len(rec.Deducts) != 1 || rec.Deducts[0].Eps != 0.5 {
		t.Fatalf("deducts: %+v", rec.Deducts)
	}
}

// TestUntaggedReplayIsShardZero: a log written without shard tags (the
// pre-shard encoding — shard-0 records are byte-identical to it) under a
// pre-shard config recovers as a single-shard table holding every row.
func TestUntaggedReplayIsShardZero(t *testing.T) {
	dir := seedStore(t) // the PR 3 idiom: untagged rows records
	s, rec := recoverOne(t, dir)
	defer s.Close()
	if rec.Config.Shards != 0 {
		t.Fatalf("legacy config grew shards = %d", rec.Config.Shards)
	}
	tb := rec.Tables[0]
	// The legacy state imports as a single-shard table with all rows.
	db := dpsql.NewDB()
	tab, err := db.Import(tb)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumShards() != 1 || tab.NumRows() != 3 {
		t.Fatalf("legacy import: shards=%d rows=%d", tab.NumShards(), tab.NumRows())
	}
}

// TestTornTailShardTaggedKeepsDeductions: tearing the buffered tail of a
// shard-tagged log drops at most trailing row batches — the fsynced
// deduction before them always survives, and the intact tagged records
// recover in record order, imported into their users' hash shards.
func TestTornTailShardTaggedKeepsDeductions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.CreateTenant("acme", shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendTable(eventsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 3, [][]dpsql.Value{row("u1", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AppendDeduct(dp.EpsCost(0.5)); err != nil { // fsync barrier
		t.Fatal(err)
	}
	if err := tl.AppendRows("events", 2, [][]dpsql.Value{row("u2", 2)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear mid-record: a crashed append of a tagged rows record.
	wal := filepath.Join(dir, "acme", walName)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`00000000 {"seq":9,"type":"rows","rows_table":"events","shard":1,"rows":[[{"k":2,"s":"u`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec := recoverOne(t, dir)
	defer s2.Close()
	if len(rec.Deducts) != 1 || rec.Deducts[0].Eps != 0.5 {
		t.Fatalf("torn tagged tail lost the deduction: %+v", rec.Deducts)
	}
	tb := rec.Tables[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("intact tagged rows dropped: %d", len(tb.Rows))
	}
	if want := [][]dpsql.Value{row("u1", 1), row("u2", 2)}; !reflect.DeepEqual(tb.Rows, want) {
		t.Fatalf("recovered rows %v, want record order %v", tb.Rows, want)
	}
	checkImportHashPlaced(t, tb, rec.Config.Shards)
}
