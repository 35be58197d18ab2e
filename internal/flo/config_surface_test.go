package flo

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestConfigSurface is a ratchet on the number of independently settable
// values: every field doubles the configurations tests and benchmarks must
// cover, so adding one has to be a deliberate edit of this list.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(Config{}), "Endpoint Registry Priv VerifyPool SyncVerify Workers BatchSize Source Deliver " +
			"OnSnapshotInstall OnEvent Equivocate DisablePiggyback EpochLen FDThreshold MaxPending InitialTimer " +
			"ViewTimeout LeaseTimeout DataDir SyncWrites CatchUpBatch SnapChunkBytes SnapshotEvery State " +
			"EnableEvidence ExcludeConvicted OnConviction GossipBodies GossipFanout CompressBodies"},
		{reflect.TypeOf(store.Options{}), "Sync GroupCommit GroupCommitMaxBatch Registry Instance"},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			got = append(got, c.typ.Field(i).Name)
		}
		if want := strings.Fields(c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%v has %d fields, pinned at %d:\n got  %v\n want %v", c.typ, len(got), len(want), got, want)
		}
	}
}
