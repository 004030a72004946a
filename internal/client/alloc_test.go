package client

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/tiles"
	"repro/internal/transport"
)

// TestHarvestDisplayAllocs: one tick of a slot — its tiles harvested and
// bucketed, admitted to a full RAM that releases as many, the view's
// coverage checked, a lost tile NACKed, Release and ACK queued and the
// tick's control write made — allocates nothing once the runner's lists
// have grown.
func TestHarvestDisplayAllocs(t *testing.T) {
	local, remote := net.Pipe()
	go io.Copy(io.Discard, remote)
	t.Cleanup(func() { local.Close(); remote.Close() })
	cfg := clientCfg(3, "x", 64)
	cfg.NackLost = true
	r := &runner{
		cfg:    cfg,
		ctrl:   transport.NewConn(local),
		reasm:  transport.NewReassembler(),
		ram:    tiles.NewClientRAM(8),
		acc:    metrics.NewUserQoE(cfg.Params),
		byslot: make(map[uint32][]tiles.VideoID),
	}
	const tilesPerSlot, frag = tiles.NumTiles - 1, 1200
	payload := make([]byte, 2*frag)
	var p transport.Packet
	slot := uint32(0)
	tick := func() {
		now := time.Now()
		// Every slot's tiles are new (another cell), so RAM releases as
		// many as it admits; the last tile loses its second fragment.
		cell := tiles.CellID{X: int32(slot), Z: 1}
		for k := range tilesPerSlot + 1 {
			id, _ := tiles.PackVideoID(cell, tiles.TileID(k), 1)
			for f := range 2 {
				if k == tilesPerSlot && f == 1 {
					break
				}
				p = transport.Packet{
					Type: transport.PacketTile, User: cfg.User, Slot: slot, VideoID: id,
					FragIdx: uint16(f), FragCount: 2, Payload: payload[f*frag : (f+1)*frag],
				}
				r.reasm.Ingest(&p, now)
			}
		}
		r.harvest(slot)
		r.displaySlot(slot)
		if err := r.flush(); err != nil {
			t.Fatal(err)
		}
		slot++
	}
	for range 16 {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Errorf("harvest + display of a slot = %.2f allocs, want 0", allocs)
	}
	if r.tilesTotal != tilesPerSlot*int(slot) || r.releases != r.tilesTotal-r.ram.Len() || r.nacks != int(slot) {
		t.Errorf("over %d slots: %d tiles, %d released, %d NACKed", slot, r.tilesTotal, r.releases, r.nacks)
	}
}
