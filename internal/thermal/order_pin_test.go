package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"darksim/internal/tech"
)

// TestProfileOrderPinned pins the profile ordering of the boosting
// figures' platforms (fig11/fig12 at 16 nm/100 cores, fig13 at
// 11 nm/198) and of the 576- and 1024-core TSP models by the SHA-256 of
// the ordering, little-endian uint32 per entry. The ordering fixes every
// factor entry's summation order, so a change here moves solver bits.
func TestProfileOrderPinned(t *testing.T) {
	cases := []struct {
		name  string
		node  tech.Node
		cores int
		want  string
	}{
		{"16nm/100", tech.Node16, 100, "62fc1055268c2454b41b0477a40ba3a5f2cac3450bfbaf03d1da1881a1f7f191"},
		{"11nm/198", tech.Node11, 198, "68bad5908cc6c7a10a9b51f7a7b0fa5bef93656759ae8b11f44a3e11e87efe0c"},
		{"16nm/576", tech.Node16, 576, "3209326b1e31d001aa0591dfa2dbc2cc0709eead9cd811fa7b2cf3ce312fc0da"},
		{"16nm/1024", tech.Node16, 1024, "9a6f9d1a49fef78585016c0cc14d8a3e3b317e12261efbc5f60d3cd2dc7cc548"},
	}
	for _, c := range cases {
		m := paperModel(t, c.node, c.cores)
		h := sha256.New()
		for _, v := range m.order {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: ordering hash %s, want %s", c.name, got, c.want)
		}
	}
}
