let bytes n = (n + 7) lsr 3

let get s i =
  if i < 0 then invalid_arg "Bitpack.get: negative index";
  Char.code s.[i lsr 3] land (1 lsl (i land 7)) <> 0

let init n f =
  let b = Bytes.make (bytes n) '\000' in
  for i = 0 to n - 1 do
    if f i then begin
      let c = Char.code (Bytes.get b (i lsr 3)) in
      Bytes.set b (i lsr 3) (Char.unsafe_chr (c lor (1 lsl (i land 7))))
    end
  done;
  Bytes.unsafe_to_string b

let well_formed n s =
  String.length s = bytes n
  && (n land 7 = 0 || Char.code s.[String.length s - 1] lsr (n land 7) = 0)
