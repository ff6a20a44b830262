package tlsrec

import (
	"encoding/binary"

	"smt/internal/wire"
)

// RecordReader cuts whole records out of an in-order record stream that
// arrives in batches of any size, the receive half of TLS over TCP. A
// record that lies inside one batch is returned as a slice of it, with
// no copy; only a record that straddles the end of a batch is copied,
// into the reader's carry buffer, and returned from there once the
// batches after it complete it. The zero value is ready to use.
type RecordReader struct {
	carry []byte // a record begun in an earlier batch
}

// recordLen is the wire length of the record whose header starts b, or
// 0 while b is shorter than a header.
func recordLen(b []byte) int {
	if len(b) < wire.RecordHeaderLen {
		return 0
	}
	return wire.RecordHeaderLen + int(binary.BigEndian.Uint16(b[3:5]))
}

// Next returns the stream's next whole record, reading on from data,
// and the part of data after it. ok is false once data ends inside a
// record; its bytes so far are then carried into the next call. The
// record stays valid until the next call; data is never retained.
func (r *RecordReader) Next(data []byte) (rec, rest []byte, ok bool) {
	if len(r.carry) == 0 {
		if n := recordLen(data); n > 0 && n <= len(data) {
			return data[:n], data[n:], true
		}
		r.carry = append(r.carry, data...)
		return nil, nil, false
	}
	// Complete the carried record: its header first, then its body.
	if k := wire.RecordHeaderLen - len(r.carry); k > 0 {
		k = min(k, len(data))
		r.carry, data = append(r.carry, data[:k]...), data[k:]
		if len(r.carry) < wire.RecordHeaderLen {
			return nil, nil, false
		}
	}
	n := recordLen(r.carry)
	k := min(n-len(r.carry), len(data))
	r.carry, data = append(r.carry, data[:k]...), data[k:]
	if len(r.carry) < n {
		return nil, nil, false
	}
	rec, r.carry = r.carry, r.carry[:0]
	return rec, data, true
}

// Retain keeps rec, the record Next just returned, as the head of the
// stream after it failed to open. The stream is dead past a record
// that fails (TLS alert semantics), so the bytes after it are dropped,
// and every later Next returns rec again: a receiver that keeps reading
// keeps failing on the same record, as one that never consumed it does.
func (r *RecordReader) Retain(rec []byte) {
	r.carry = append(r.carry[:0], rec...)
}
