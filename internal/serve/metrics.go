package serve

import (
	"net/http"
	"strconv"

	"fadewich/internal/promtext"
)

// handleMetrics renders the dependency-free GET /metrics endpoint: the
// counters the stream, segment and TCP layers already expose via
// Stats(), plus the reconcile loop's gauges. Counter values are exact
// snapshots of the corresponding Stats() numbers — the metrics test
// holds them equal in a quiesced state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p promtext.Writer
	st := s.ing.Stats()
	tot := st.Totals()
	rst, reports := s.rec.Status()

	p.Metric("fadewich_ingest_pushed_ticks_total", "counter", "Ticks accepted into office queues, including retired offices.")
	p.Sample("fadewich_ingest_pushed_ticks_total", float64(tot.Pushed))
	p.Metric("fadewich_ingest_dispatched_ticks_total", "counter", "Ticks delivered to the fleet, including retired offices.")
	p.Sample("fadewich_ingest_dispatched_ticks_total", float64(tot.Dispatched))
	p.Metric("fadewich_ingest_dropped_ticks_total", "counter", "Ticks lost to backpressure policy or office retirement.")
	p.Sample("fadewich_ingest_dropped_ticks_total", float64(tot.Dropped))
	p.Metric("fadewich_ingest_queue_depth", "gauge", "Ticks currently queued across live offices.")
	p.Sample("fadewich_ingest_queue_depth", float64(tot.Depth))
	p.Metric("fadewich_ingest_buffer_bytes", "gauge", "Capacity of the office queues' tick arenas and row headers, in bytes.")
	p.Sample("fadewich_ingest_buffer_bytes", float64(st.BufferBytes))
	p.Metric("fadewich_ingest_batches_total", "counter", "Dispatch cycles that delivered work to the fleet.")
	p.Sample("fadewich_ingest_batches_total", float64(st.Batches))
	p.Metric("fadewich_ingest_actions_total", "counter", "Merged actions produced by dispatched batches.")
	p.Sample("fadewich_ingest_actions_total", float64(st.Actions))
	p.Metric("fadewich_office_queue_depth", "gauge", "Ticks currently queued per office.")
	p.Metric("fadewich_office_pushed_ticks_total", "counter", "Ticks accepted per office.")
	names := make(map[int]string)
	for _, rep := range reports {
		names[rep.ID] = rep.Name
	}
	labels := make([]string, len(st.Offices))
	for i, o := range st.Offices {
		if labels[i] = names[o.Office]; labels[i] == "" {
			labels[i] = strconv.Itoa(o.Office)
		}
		p.Labelled("fadewich_office_queue_depth", "office", labels[i], float64(o.Depth))
	}
	for i, o := range st.Offices {
		p.Labelled("fadewich_office_pushed_ticks_total", "office", labels[i], float64(o.Pushed))
	}

	p.Metric("fadewich_offices_desired", "gauge", "Office count of the last valid fleet spec.")
	p.Sample("fadewich_offices_desired", float64(rst.DesiredOffices))
	p.Metric("fadewich_offices_live", "gauge", "Current fleet membership.")
	p.Sample("fadewich_offices_live", float64(rst.LiveOffices))
	p.Metric("fadewich_spec_generation", "gauge", "Observed revisions of the fleet-spec content.")
	p.Sample("fadewich_spec_generation", float64(rst.SpecGeneration))
	p.Metric("fadewich_spec_generation_lag", "gauge", "Generations the oldest live office trails the spec.")
	p.Sample("fadewich_spec_generation_lag", float64(rst.GenerationLag))
	p.Metric("fadewich_reconciles_total", "counter", "Applied reconcile iterations (no-ops excluded).")
	p.Sample("fadewich_reconciles_total", float64(rst.Reconciles))
	p.Metric("fadewich_reconcile_errors_total", "counter", "Reconcile iterations that failed validation or apply.")
	p.Sample("fadewich_reconcile_errors_total", float64(rst.Errors))
	p.Metric("fadewich_reconcile_last_duration_seconds", "gauge", "Wall-clock cost of the last applied reconcile.")
	p.Sample("fadewich_reconcile_last_duration_seconds", rst.LastDuration.Seconds())

	frames, actions, overflows := s.bcast.Stats()
	p.Metric("fadewich_actions_subscribers", "gauge", "Connected /v1/actions consumers.")
	p.Sample("fadewich_actions_subscribers", float64(s.bcast.Subscribers()))
	p.Metric("fadewich_actions_frames_total", "counter", "Action batches broadcast to subscribers.")
	p.Sample("fadewich_actions_frames_total", float64(frames))
	p.Metric("fadewich_actions_broadcast_total", "counter", "Actions carried by broadcast frames.")
	p.Sample("fadewich_actions_broadcast_total", float64(actions))
	p.Metric("fadewich_actions_overflows_total", "counter", "Subscribers dropped for falling behind their frame buffer.")
	p.Sample("fadewich_actions_overflows_total", float64(overflows))

	// Bytes-moved accounting, one family across the byte-producing
	// sinks: logical is the uncompressed-equivalent frame size, wire is
	// what actually hit the disk, socket or subscriber channel.
	// logical/wire is each kind's compression ratio.
	bcLogical, bcWire := s.bcast.ByteStats()
	p.Metric("fadewich_logical_bytes_total", "counter", "Uncompressed-equivalent frame bytes produced, by sink kind.")
	p.Metric("fadewich_wire_bytes_total", "counter", "Frame bytes actually written, by sink kind.")
	type byteRow struct {
		kind           string
		logical, wired float64
	}
	rows := []byteRow{{kind: "broadcast", logical: float64(bcLogical), wired: float64(bcWire)}}
	if s.seg != nil {
		sst := s.seg.Stats()
		rows = append(rows, byteRow{kind: "segment", logical: float64(sst.Bytes), wired: float64(sst.WireBytes)})
	}
	if s.fwd != nil {
		fst := s.fwd.Stats()
		rows = append(rows, byteRow{kind: "forward", logical: float64(fst.Bytes), wired: float64(fst.WireBytes)})
	}
	for _, row := range rows {
		p.Labelled("fadewich_logical_bytes_total", "kind", row.kind, row.logical)
	}
	for _, row := range rows {
		p.Labelled("fadewich_wire_bytes_total", "kind", row.kind, row.wired)
	}

	if s.seg != nil {
		sst := s.seg.Stats()
		p.Metric("fadewich_segment_frames_total", "counter", "Frames appended to the segment log by this writer generation.")
		p.Sample("fadewich_segment_frames_total", float64(sst.Frames))
		p.Metric("fadewich_segment_bytes_total", "counter", "Logical (uncompressed-equivalent) bytes appended to the segment log by this writer generation; fadewich_wire_bytes_total{kind=\"segment\"} is the on-disk count.")
		p.Sample("fadewich_segment_bytes_total", float64(sst.Bytes))
		p.Metric("fadewich_segment_syncs_total", "counter", "fsync calls on segment files.")
		p.Sample("fadewich_segment_syncs_total", float64(sst.Syncs))
		p.Metric("fadewich_segment_sealed_segments", "gauge", "Sealed segments in the directory manifest.")
		p.Sample("fadewich_segment_sealed_segments", float64(sst.Sealed))
		var sealedFrames, sealedBytes int64
		for _, info := range s.seg.Sealed() {
			sealedFrames += int64(info.Frames)
			sealedBytes += info.Bytes
		}
		p.Metric("fadewich_segment_sealed_frames_total", "counter", "Frames in sealed segments, per the directory manifest.")
		p.Sample("fadewich_segment_sealed_frames_total", float64(sealedFrames))
		p.Metric("fadewich_segment_sealed_bytes_total", "counter", "Bytes in sealed segments, per the directory manifest.")
		p.Sample("fadewich_segment_sealed_bytes_total", float64(sealedBytes))
	}

	if s.maintStop != nil {
		p.Metric("fadewich_segment_maintenance_passes_total", "counter", "Completed segment-maintenance passes.")
		p.Sample("fadewich_segment_maintenance_passes_total", float64(s.maint.passes.Load()))
		p.Metric("fadewich_segment_maintenance_errors_total", "counter", "Segment-maintenance passes that failed.")
		p.Sample("fadewich_segment_maintenance_errors_total", float64(s.maint.errors.Load()))
		p.Metric("fadewich_segment_compacted_segments_total", "counter", "Sealed segments rewritten into compressed frames.")
		p.Sample("fadewich_segment_compacted_segments_total", float64(s.maint.compactedSegments.Load()))
		p.Metric("fadewich_segment_compacted_bytes_saved_total", "counter", "On-disk bytes reclaimed by compaction.")
		p.Sample("fadewich_segment_compacted_bytes_saved_total", float64(s.maint.compactedBytesSaved.Load()))
		p.Metric("fadewich_segment_retained_segments_total", "counter", "Sealed segments deleted by TTL retention.")
		p.Sample("fadewich_segment_retained_segments_total", float64(s.maint.retainedSegments.Load()))
		p.Metric("fadewich_segment_retained_bytes_total", "counter", "On-disk bytes deleted by TTL retention.")
		p.Sample("fadewich_segment_retained_bytes_total", float64(s.maint.retainedBytes.Load()))
		p.Metric("fadewich_segment_replicated_segments_total", "counter", "Sealed segments shipped to the replica directory.")
		p.Sample("fadewich_segment_replicated_segments_total", float64(s.maint.replicatedSegments.Load()))
		p.Metric("fadewich_segment_replicated_bytes_total", "counter", "Bytes shipped to the replica directory.")
		p.Sample("fadewich_segment_replicated_bytes_total", float64(s.maint.replicatedBytes.Load()))
	}

	if s.fwd != nil {
		fst := s.fwd.Stats()
		p.Metric("fadewich_forward_frames_total", "counter", "Frames delivered to the TCP forward peer.")
		p.Sample("fadewich_forward_frames_total", float64(fst.Frames))
		p.Metric("fadewich_forward_attempts_total", "counter", "Frame write attempts to the forward peer, including retries.")
		p.Sample("fadewich_forward_attempts_total", float64(fst.Attempts))
		p.Metric("fadewich_forward_redials_total", "counter", "Forward connections re-established after a loss.")
		p.Sample("fadewich_forward_redials_total", float64(fst.Redials))
		p.Metric("fadewich_forward_dial_failures_total", "counter", "Failed forward dial attempts.")
		p.Sample("fadewich_forward_dial_failures_total", float64(fst.DialFailures))
		p.Metric("fadewich_forward_write_failures_total", "counter", "Failed forward write attempts.")
		p.Sample("fadewich_forward_write_failures_total", float64(fst.WriteFailures))
	}

	p.Serve(w)
}
