let marker = '\xC3'
let header_bytes = 12

module PM = Physmem.Phys_mem

type t = {
  mem : PM.t;
  base : int;
  capacity : int;
  mutable cursor : int; (* offset of the next record *)
  mutable records : string list; (* newest first *)
  mutable truncated : bool; (* a damaged record stopped the recovery scan *)
  mutable stage : Bytes.t; (* header and payload of the record being appended *)
}

(* Adler-ish rolling checksum, 32 bits, never zero (zero means "blank").
   Reducing the sums once at the end gives the per-byte value; 63 bits
   hold them for any record. *)
let checksum_sub b ~pos ~len =
  let a = ref 1 and s = ref 0 in
  for i = pos to pos + len - 1 do
    a := !a + Char.code (Bytes.get b i);
    s := !s + !a
  done;
  let v = ((!s mod 65521) lsl 16) lor (!a mod 65521) in
  if v = 0 then 1 else v

(* [checksum_sub] only reads its bytes. *)
let checksum s = checksum_sub (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let blank_header = String.make header_bytes '\000'
let marker_byte = String.make 1 marker
let record_span payload_len = header_bytes + payload_len + 1

let max_record t = t.capacity - record_span 0

let create ~mem ~base ~capacity =
  if PM.region_of_frame mem (Physmem.Frame.of_addr base) <> PM.Nvm then
    invalid_arg "Wal.create: base not in the NVM region";
  if capacity < record_span 1 then invalid_arg "Wal.create: capacity too small";
  { mem; base; capacity; cursor = 0; records = []; truncated = false; stage = Bytes.empty }

(* Stage [payload] behind its header: length, payload checksum, then a CRC
   over those 8 bytes. A torn or bit-flipped header fails its own CRC
   instead of being trusted as a length field pointing into garbage. *)
let stage t payload =
  let len = String.length payload in
  if Bytes.length t.stage < header_bytes + len then
    t.stage <- Bytes.create (max (header_bytes + len) (2 * Bytes.length t.stage));
  let b = t.stage in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (checksum payload));
  Bytes.set_int32_le b 8 (Int32.of_int (checksum_sub b ~pos:0 ~len:8));
  Bytes.blit_string payload 0 b header_bytes len

type error = Wal_full

let append ?(durable = true) t payload =
  if payload = "" then invalid_arg "Wal.append: empty record";
  let span = record_span (String.length payload) in
  if t.cursor + span > t.capacity then Error Wal_full
  else begin
    let addr = t.base + t.cursor in
    (* 1. Header + payload — plus a blank header right after the record,
       durable BEFORE the commit marker. A reset only blanks the log's
       head, so stale records from before it survive further out; without
       the blank, a recovery scan that happens to land on one of their
       boundaries would replay pre-reset transactions as if they were
       the newest. With it, any scan that accepts this record stops. *)
    let full_len = header_bytes + String.length payload in
    stage t payload;
    PM.write_persistent_sub t.mem ~addr t.stage ~pos:0 ~len:full_len;
    let blank_tail = t.cursor + span + header_bytes <= t.capacity in
    if blank_tail then PM.write_persistent t.mem ~addr:(addr + span) blank_header;
    if durable then begin
      (* Injected buggy flush loop: only the first half of the record's
         bytes are flushed before the fence; a crash tears the rest. *)
      let flush_len =
        if
          Sim.Fault_inject.fires
            (Sim.Trace.faults (PM.trace t.mem))
            ~site:Sim.Fault_inject.site_wal_partial_flush
        then full_len / 2
        else full_len
      in
      if blank_tail then PM.flush t.mem ~addr:(addr + span) ~len:header_bytes;
      PM.flush t.mem ~addr ~len:flush_len;
      PM.fence t.mem
    end;
    (* 2. Commit marker, strictly after the payload is durable. *)
    let marker_addr = addr + full_len in
    PM.write_persistent t.mem ~addr:marker_addr marker_byte;
    if durable then begin
      PM.flush t.mem ~addr:marker_addr ~len:1;
      PM.fence t.mem
    end;
    t.cursor <- t.cursor + span;
    t.records <- payload :: t.records;
    Ok ()
  end

let append_exn ?durable t payload =
  match append ?durable t payload with
  | Ok () -> ()
  | Error Wal_full -> Sim.Errno.fail Sim.Errno.ENOSPC "Wal.append"

let entries t = List.rev t.records
let entry_count t = List.length t.records
let used_bytes t = t.cursor
let truncated t = t.truncated

let recover ~mem ~base ~capacity =
  let get32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF in
  let t = { mem; base; capacity; cursor = 0; records = []; truncated = false; stage = Bytes.empty } in
  let hdr = Bytes.create header_bytes in
  let rec scan off =
    if off + header_bytes + 1 > capacity then ()
    else begin
      PM.read_into mem ~addr:(base + off) ~len:header_bytes hdr ~pos:0;
      if Bytes.for_all (( = ) '\000') hdr then ()
        (* blank header: clean end of log *)
      else begin
        let len = get32 hdr 0 and cksum = get32 hdr 4 and hcrc = get32 hdr 8 in
        if
          hcrc <> checksum_sub hdr ~pos:0 ~len:8
          || len <= 0 || cksum = 0
          || off + record_span len > capacity
        then t.truncated <- true
        else begin
          (* A fresh buffer that nothing else holds. *)
          let payload = Bytes.unsafe_to_string (PM.read mem ~addr:(base + off + header_bytes) ~len) in
          PM.read_into mem ~addr:(base + off + header_bytes + len) ~len:1 hdr ~pos:0;
          if Bytes.get hdr 0 <> marker || checksum payload <> cksum then t.truncated <- true
          else begin
            t.records <- payload :: t.records;
            t.cursor <- off + record_span len;
            scan (off + record_span len)
          end
        end
      end
    end
  in
  scan 0;
  t

let rewind t =
  t.cursor <- 0;
  t.records <- [];
  t.truncated <- false

let reset t =
  (* Zero the first header durably: recovery then sees an empty log. *)
  PM.write_persistent t.mem ~addr:t.base blank_header;
  PM.flush t.mem ~addr:t.base ~len:header_bytes;
  PM.fence t.mem;
  rewind t
