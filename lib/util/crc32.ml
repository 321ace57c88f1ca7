(* CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Used for page
   and WAL-record checksums; the value fits OCaml's native int. The table
   is built eagerly at module initialisation: a lazy one could be forced
   by two shard domains at once, which raises [Lazy.Undefined]. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let init = 0xFFFFFFFF

let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32.update: range out of bounds";
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.get buf i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

let finish crc = crc lxor 0xFFFFFFFF

let digest buf ~pos ~len = finish (update init buf ~pos ~len)

let bytes buf = digest buf ~pos:0 ~len:(Bytes.length buf)
