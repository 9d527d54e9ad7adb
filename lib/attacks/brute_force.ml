type outcome = { keys_tested : int; found : Key.assignment option }

let exec ?(samples = 64) ?seed ~budget ~locked ~key_inputs ~oracle () =
  let rec go tested keys =
    match keys () with
    | Seq.Nil -> { keys_tested = tested; found = None }
    | Seq.Cons (key, rest) ->
      Budget.tick budget;
      if
        Sat_attack.verify_key ~samples ?seed ~locked ~key_inputs ~oracle key
        = 0
      then { keys_tested = tested + 1; found = Some key }
      else go (tested + 1) rest
  in
  go 0 (Key.enumerate key_inputs)
